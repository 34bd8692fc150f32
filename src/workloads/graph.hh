/**
 * @file
 * In-memory CSR graphs and the synthetic generators standing in for the
 * paper's input graphs (Table V: Web, Road, Twitter, Kron, Urand).
 *
 * The paper's graphs are hundreds of millions of edges; we reproduce their
 * *degree-distribution classes* (power-law of varying skew, uniform random,
 * low-degree mesh) at laptop scale, since degree distribution is the
 * property the paper identifies as controlling reuse and off-chip rate
 * (§V-B). Friendster is covered by the Urand/Twitter classes.
 */

#ifndef TLPSIM_WORKLOADS_GRAPH_HH
#define TLPSIM_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace tlpsim::workloads
{

using Vertex = std::uint32_t;

/** Compressed-sparse-row graph (undirected: both edge directions stored). */
struct Graph
{
    std::vector<std::uint64_t> offsets;   ///< size = numVertices() + 1
    std::vector<Vertex> neighbors;        ///< size = numEdges()

    Vertex
    numVertices() const
    {
        return static_cast<Vertex>(offsets.empty() ? 0 : offsets.size() - 1);
    }

    std::uint64_t numEdges() const { return neighbors.size(); }

    std::uint64_t degree(Vertex v) const { return offsets[v + 1] - offsets[v]; }

    /** Begin index of v's adjacency list in neighbors. */
    std::uint64_t begin(Vertex v) const { return offsets[v]; }
    std::uint64_t end(Vertex v) const { return offsets[v + 1]; }

    Vertex maxDegreeVertex() const;
    std::uint64_t maxDegree() const;
    double avgDegree() const;
};

/** The five input-graph classes from Table V. */
enum class GraphKind
{
    Web,       ///< power-law with locality (preferential attachment)
    Road,      ///< low-degree 2D mesh with shortcuts
    Twitter,   ///< heavily skewed power-law (RMAT a=0.62)
    Kron,      ///< Kronecker/RMAT (a=0.57), the Graph500 generator
    Urand,     ///< uniform random (Erdős–Rényi style)
};

constexpr GraphKind kAllGraphKinds[] = {
    GraphKind::Web, GraphKind::Road, GraphKind::Twitter,
    GraphKind::Kron, GraphKind::Urand,
};

const char *toString(GraphKind k);

/**
 * Build a graph of roughly 2^scale vertices and avg_degree directed edges
 * per vertex (after symmetrization). Deterministic in @p seed.
 *
 * Graphs of 2^20 edges or more are packed into CSR by up to 8 host
 * threads; the output does not depend on the thread count. Smaller
 * graphs are built on the calling thread alone.
 */
Graph makeGraph(GraphKind kind, unsigned scale, unsigned avg_degree,
                std::uint64_t seed);

/**
 * Process-wide cache of built graphs so the 6 GAP kernels sharing one
 * input graph pay its construction cost once per bench binary.
 *
 * Thread-safe: concurrent get() calls for the same key build the graph
 * once and share it read-only. Callers receive a shared_ptr so cache
 * eviction can never invalidate a graph still in use by another worker.
 */
class GraphCache
{
  public:
    static std::shared_ptr<const Graph> get(GraphKind kind, unsigned scale,
                                            unsigned avg_degree,
                                            std::uint64_t seed);
    static void clear();
};

} // namespace tlpsim::workloads

#endif // TLPSIM_WORKLOADS_GRAPH_HH
