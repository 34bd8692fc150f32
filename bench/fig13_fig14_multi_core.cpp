/**
 * @file
 * The multi-core headline evaluation:
 *   Figure 13: 4-core weighted speedup of PPF / Hermes / Hermes+PPF / TLP
 *              over baseline, for IPCP (13a) and Berti (13b);
 *   Figure 14: increase in DRAM transactions, same design points.
 *
 * Weighted speedup follows §V-D: per-slot IPC_shared / IPC_single
 * (isolated baseline run), summed, normalized to the baseline mix.
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

namespace
{

void
evaluatePrefetcher(const std::vector<workloads::WorkloadSpec> &ws,
                   const std::vector<workloads::Mix> &mixes,
                   const std::string &pf, const char *tag)
{
    auto schemes = SchemeConfig::paperSchemes();
    SystemConfig mc_base = benchConfigMc(pf);
    SystemConfig sc_base = benchConfig(pf);

    TablePrinter tp({"mix", "suite", "ppf", "hermes", "hermes+ppf",
                     "tlp"}, 16);
    tp.printHeader(std::string("Figure 13") + tag
                   + ": weighted speedup over baseline (%)");
    std::map<std::string, SuiteSummary> ws_summary;
    std::map<std::string, std::vector<double>> dram_deltas;

    for (const auto &mix : mixes) {
        const SimResult &b = runMixCached(ws, mix, mc_base);
        auto singles = mixSingleIpcs(ws, mix, sc_base);
        std::vector<std::string> row{mix.name, toString(mix.suite)};
        for (const auto &s : schemes) {
            const SimResult &r = runMixCached(ws, mix,
                                              benchConfigMc(pf, s));
            double pct = experiment::weightedSpeedupPct(r, b, singles);
            ws_summary[s.name].add(mix.suite, pct);
            row.push_back(TablePrinter::fmtPct(pct));
            dram_deltas[s.name].push_back(experiment::percentDelta(
                static_cast<double>(r.dramTransactions()),
                static_cast<double>(b.dramTransactions())));
        }
        tp.printRow(row);
    }
    tp.printSeparator();
    std::vector<std::string> gm{"GEOMEAN", ""};
    for (const auto &s : schemes)
        gm.push_back(TablePrinter::fmtPct(ws_summary[s.name].allMean()));
    tp.printRow(gm);

    TablePrinter tp14({"metric", "ppf", "hermes", "hermes+ppf", "tlp"},
                      16);
    tp14.printHeader(std::string("Figure 14") + tag
                     + ": DRAM transaction increase over baseline (%)");
    std::vector<std::string> row{"ARITH MEAN"};
    for (const auto &s : schemes) {
        double sum = 0;
        for (double d : dram_deltas[s.name])
            sum += d;
        row.push_back(TablePrinter::fmtPct(
            sum / static_cast<double>(dram_deltas[s.name].size())));
    }
    tp14.printRow(row);
}

int
reproduce()
{
    printBanner("Figures 13 & 14 — multi-core evaluation",
                "Fig. 13 (weighted speedup) and Fig. 14 (ΔDRAM), 4-core; "
                "(a)=IPCP, (b)=Berti");

    auto ws = benchWorkloads();
    auto mixes = benchMixSet(ws);
    // Queue both prefetchers' full grids before rendering anything.
    for (const char *pf : {"ipcp", "berti"}) {
        std::vector<SystemConfig> grid{benchConfigMc(pf)};
        for (const auto &s : SchemeConfig::paperSchemes())
            grid.push_back(benchConfigMc(pf, s));
        prewarmMixes(ws, mixes, grid);
        prewarmMixSingles(ws, mixes, benchConfig(pf));
    }
    evaluatePrefetcher(ws, mixes, "ipcp", "a (IPCP)");
    evaluatePrefetcher(ws, mixes, "berti", "b (Berti)");

    std::printf("\npaper shape: TLP clearly wins the weighted-speedup "
                "geomean (paper: +11.5%% IPCP / +11.8%% Berti) and is the "
                "only design point that reduces DRAM transactions.\n");
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("fig13_fig14_multi_core", reproduce);
}
