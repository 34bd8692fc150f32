/**
 * @file
 * Figure 15: performance contribution of each TLP component, 4-core with
 * IPCP: FLP (no delay), SLP alone, TSP, Delayed TSP, Selective TSP, TLP.
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

namespace
{

int
reproduce()
{
    printBanner("Figure 15 — TLP component ablation",
                "Fig. 15 (FLP / SLP / TSP / Delayed TSP / Selective TSP / "
                "TLP, 4-core, IPCP)");

    auto ws = benchWorkloads();
    auto mixes = benchMixSet(ws);
    auto schemes = SchemeConfig::ablationSchemes();
    SystemConfig mc_base = benchConfigMc();
    SystemConfig sc_base = benchConfig();

    std::vector<SystemConfig> grid{mc_base};
    for (const auto &s : schemes)
        grid.push_back(benchConfigMc("ipcp", s));
    prewarmMixes(ws, mixes, grid);
    prewarmMixSingles(ws, mixes, sc_base);

    TablePrinter tp({"scheme", "weighted speedup", "dram delta"}, 20);
    tp.printHeader("Figure 15: geomean weighted speedup by component");

    for (const auto &s : schemes) {
        SuiteSummary summary;
        std::vector<double> dram;
        for (const auto &mix : mixes) {
            const SimResult &b = runMixCached(ws, mix, mc_base);
            auto singles = mixSingleIpcs(ws, mix, sc_base);
            const SimResult &r = runMixCached(
                ws, mix, benchConfigMc("ipcp", s));
            summary.add(mix.suite,
                        experiment::weightedSpeedupPct(r, b, singles));
            dram.push_back(experiment::percentDelta(
                static_cast<double>(r.dramTransactions()),
                static_cast<double>(b.dramTransactions())));
        }
        double dsum = 0;
        for (double d : dram)
            dsum += d;
        tp.printRow({s.name, TablePrinter::fmtPct(summary.allMean()),
                     TablePrinter::fmtPct(
                         dsum / static_cast<double>(dram.size()))});
    }
    std::printf("\npaper shape: compounding components compound gains "
                "(paper: FLP 2.9%% < SLP 6.9%% < TSP 8.4%% < Delayed TSP "
                "10.2%% < Selective TSP 11.4%% <= TLP 11.5%%).\n");
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("fig15_ablation", reproduce);
}
