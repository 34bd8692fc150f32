/**
 * @file
 * Figure 16: sensitivity to per-core DRAM bandwidth (1.6 → 25.6 GB/s) in
 * the 4-core context: (a) geomean weighted speedup, (b) ΔDRAM
 * transactions, for PPF / Hermes / Hermes+PPF / TLP.
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

namespace
{

int
reproduce()
{
    printBanner("Figure 16 — DRAM bandwidth sensitivity",
                "Fig. 16a (speedup) and 16b (ΔDRAM) at 1.6–25.6 GB/s per "
                "core, 4-core, IPCP");

    auto ws = benchWorkloads();
    // Bandwidth sweeps are 5x the simulations of the other multi-core
    // figures; use half the mixes by default.
    int mix_count = std::max(1, benchMixes() / 2);
    auto mixes = benchMixSet(ws, mix_count);
    auto schemes = SchemeConfig::paperSchemes();

    std::vector<SystemConfig> grid;
    for (double gbps : {1.6, 3.2, 6.4, 12.8, 25.6}) {
        SystemConfig mc_base = benchConfigMc();
        mc_base.dram_gbps_per_core = gbps;
        grid.push_back(mc_base);
        for (const auto &s : schemes) {
            SystemConfig mc_scheme = benchConfigMc("ipcp", s);
            mc_scheme.dram_gbps_per_core = gbps;
            grid.push_back(mc_scheme);
        }
    }
    prewarmMixes(ws, mixes, grid);
    prewarmMixSingles(ws, mixes, benchConfig());

    TablePrinter tp({"GB/s/core", "ppf", "hermes", "hermes+ppf", "tlp"},
                    16);
    tp.printHeader("Figure 16a: geomean weighted speedup (%) vs bandwidth");
    TablePrinter tp_b({"GB/s/core", "ppf", "hermes", "hermes+ppf", "tlp"},
                      16);
    std::vector<std::vector<std::string>> dram_rows;

    for (double gbps : {1.6, 3.2, 6.4, 12.8, 25.6}) {
        SystemConfig mc_base = benchConfigMc();
        mc_base.dram_gbps_per_core = gbps;
        SystemConfig sc_base = benchConfig();

        std::vector<std::string> row{TablePrinter::fmt(gbps, 1)};
        std::vector<std::string> drow{TablePrinter::fmt(gbps, 1)};
        for (const auto &s : schemes) {
            SuiteSummary summary;
            double dsum = 0;
            int dn = 0;
            SystemConfig mc_scheme = benchConfigMc("ipcp", s);
            mc_scheme.dram_gbps_per_core = gbps;
            for (const auto &mix : mixes) {
                const SimResult &b = runMixCached(ws, mix, mc_base);
                auto singles = mixSingleIpcs(ws, mix, sc_base);
                const SimResult &r = runMixCached(ws, mix, mc_scheme);
                summary.add(mix.suite,
                            experiment::weightedSpeedupPct(r, b, singles));
                dsum += experiment::percentDelta(
                    static_cast<double>(r.dramTransactions()),
                    static_cast<double>(b.dramTransactions()));
                ++dn;
            }
            row.push_back(TablePrinter::fmtPct(summary.allMean()));
            drow.push_back(TablePrinter::fmtPct(dsum / dn));
        }
        tp.printRow(row);
        dram_rows.push_back(drow);
    }

    tp_b.printHeader("Figure 16b: DRAM transaction increase (%) vs "
                     "bandwidth");
    for (const auto &r : dram_rows)
        tp_b.printRow(r);

    std::printf("\npaper shape: TLP's advantage is largest when bandwidth "
                "is scarce (paper: +21.2%% at 1.6 GB/s vs +6.9%% at 25.6) "
                "and it reduces DRAM transactions at every point.\n");
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("fig16_bandwidth", reproduce);
}
