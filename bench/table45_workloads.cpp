/**
 * @file
 * Table IV: graph-kernel characteristics; Table V: input-graph sizes —
 * regenerated from the kernel traits table and the synthetic graph
 * generators at the current bench scale.
 */

#include <cstdio>

#include "bench_common.hh"

using namespace tlpsim;
using namespace tlpsim::bench;
using namespace tlpsim::workloads;

namespace
{

int
reproduce()
{
    printBanner("Tables IV & V — GAP kernels and input graphs",
                "Table IV (kernel traits), Table V (graph sizes)");

    TablePrinter tp4({"kernel", "irreg elem", "style", "frontier"}, 16);
    tp4.printHeader("Table IV: graph kernels");
    for (GapKernel k : kAllGapKernels) {
        auto t = gapKernelTraits(k);
        tp4.printRow({t.name, t.irreg_elem_size, t.execution_style,
                      t.uses_frontier ? "Yes" : "No"});
    }

    auto p = scaleParams(setSizeFromEnv());
    TablePrinter tp5({"graph", "vertices (M)", "edges (M)", "avg deg",
                      "max deg"}, 15);
    tp5.printHeader("Table V: input graphs (synthetic, at bench scale)");
    for (GraphKind gk : p.graphs) {
        auto gp = GraphCache::get(gk, p.graph_scale, p.graph_degree, 42);
        const Graph &g = *gp;
        tp5.printRow({toString(gk),
                      TablePrinter::fmt(g.numVertices() / 1e6, 2),
                      TablePrinter::fmt(
                          static_cast<double>(g.numEdges()) / 1e6, 1),
                      TablePrinter::fmt(g.avgDegree(), 1),
                      std::to_string(g.maxDegree())});
    }
    std::printf("\npaper scale is 24-134M vertices; the synthetic graphs "
                "preserve each class's degree distribution at laptop "
                "scale (power-law skew for kron/twitter/web, uniform for "
                "urand, constant low degree for road).\n");
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("table45_workloads", reproduce);
}
