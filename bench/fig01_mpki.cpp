/**
 * @file
 * Figure 1: MPKI of L1D / L2C / LLC across SPEC and GAP workloads on the
 * baseline system (IPCP at L1D, SPP at L2, no off-chip prediction).
 */

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;

namespace
{

int
reproduce()
{
    printBanner("Figure 1 — cache MPKI of modern workloads",
                "Fig. 1 (L1D/L2C/LLC MPKI, SPEC vs GAP)");

    auto ws = benchWorkloads();
    SystemConfig cfg = benchConfig();
    prewarm(ws, {cfg});

    TablePrinter tp({"workload", "suite", "L1D MPKI", "L2C MPKI",
                     "LLC MPKI"});
    tp.printHeader("Figure 1: misses per kilo instruction");

    struct Acc
    {
        double l1d = 0, l2c = 0, llc = 0;
        int n = 0;
    } by_suite[2], all;

    for (const auto &w : ws) {
        const SimResult &r = run(w, cfg);
        tp.printRow({w.name, toString(w.suite),
                     TablePrinter::fmt(r.mpki("l1d"), 1),
                     TablePrinter::fmt(r.mpki("l2c"), 1),
                     TablePrinter::fmt(r.mpki("llc"), 1)});
        Acc &a = by_suite[w.suite == workloads::Suite::Gap ? 1 : 0];
        for (Acc *acc : {&a, &all}) {
            acc->l1d += r.mpki("l1d");
            acc->l2c += r.mpki("l2c");
            acc->llc += r.mpki("llc");
            acc->n += 1;
        }
    }
    tp.printSeparator();
    const char *names[] = {"AVG SPEC", "AVG GAP"};
    for (int s = 0; s < 2; ++s) {
        if (by_suite[s].n == 0)
            continue;
        tp.printRow({names[s], "",
                     TablePrinter::fmt(by_suite[s].l1d / by_suite[s].n, 1),
                     TablePrinter::fmt(by_suite[s].l2c / by_suite[s].n, 1),
                     TablePrinter::fmt(by_suite[s].llc / by_suite[s].n, 1)});
    }
    tp.printRow({"AVG ALL", "", TablePrinter::fmt(all.l1d / all.n, 1),
                 TablePrinter::fmt(all.l2c / all.n, 1),
                 TablePrinter::fmt(all.llc / all.n, 1)});
    std::printf("\npaper shape: L1D >> L2C >> LLC; GAP misses more than "
                "SPEC; a large fraction of L1D misses reach DRAM.\n");
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("fig01_mpki", reproduce);
}
