/**
 * @file
 * Figure 5: PPKI of *inaccurate* L1D prefetches by serve level (L2C / LLC
 *           / DRAM), for IPCP and Berti.
 * Figure 6: same for *accurate* prefetches.
 *
 * Together they reproduce Finding 4: prefetches served from DRAM are
 * overwhelmingly useless — off-chip prediction can drive L1D filtering.
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

namespace
{

void
printFigure(const char *title, const std::vector<workloads::WorkloadSpec> &ws,
            const std::string &pf, bool accurate)
{
    SystemConfig cfg = benchConfig(pf);
    TablePrinter tp({"workload", "from L2C", "from LLC", "from DRAM",
                     "total PPKI"});
    tp.printHeader(title);
    const char *kind = accurate ? "pf_useful_from_" : "pf_useless_from_";
    double sums[3] = {};
    int n = 0;
    for (const auto &w : ws) {
        const SimResult &r = run(w, cfg);
        double l2 = r.ppki(std::string("l1d.") + kind + "l2c");
        double llc = r.ppki(std::string("l1d.") + kind + "llc");
        double dram = r.ppki(std::string("l1d.") + kind + "dram");
        tp.printRow({w.name, TablePrinter::fmt(l2, 1),
                     TablePrinter::fmt(llc, 1), TablePrinter::fmt(dram, 1),
                     TablePrinter::fmt(l2 + llc + dram, 1)});
        sums[0] += l2;
        sums[1] += llc;
        sums[2] += dram;
        ++n;
    }
    tp.printSeparator();
    tp.printRow({"AVG", TablePrinter::fmt(sums[0] / n, 1),
                 TablePrinter::fmt(sums[1] / n, 1),
                 TablePrinter::fmt(sums[2] / n, 1),
                 TablePrinter::fmt((sums[0] + sums[1] + sums[2]) / n, 1)});
}

int
reproduce()
{
    printBanner("Figures 5 & 6 — where L1D prefetches are served from",
                "Fig. 5 (inaccurate PPKI) and Fig. 6 (accurate PPKI), "
                "IPCP and Berti");

    auto ws = benchWorkloads();
    prewarm(ws, {benchConfig("ipcp"),
                 benchConfig("berti")});
    printFigure("Figure 5a: INACCURATE IPCP prefetches (PPKI by level)",
                ws, "ipcp", false);
    printFigure("Figure 5b: INACCURATE Berti prefetches (PPKI by level)",
                ws, "berti", false);
    printFigure("Figure 6a: ACCURATE IPCP prefetches (PPKI by level)",
                ws, "ipcp", true);
    printFigure("Figure 6b: ACCURATE Berti prefetches (PPKI by level)",
                ws, "berti", true);

    std::printf("\npaper shape: the DRAM column dominates Fig. 5 (useless "
                "prefetches mostly come from DRAM), while Fig. 6's DRAM "
                "column is much smaller; IPCP issues far more than "
                "Berti.\n");
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("fig05_fig06_prefetch_location", reproduce);
}
