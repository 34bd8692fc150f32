#include "workloads/graph.hh"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <system_error>
#include <thread>
#include <tuple>

#include "common/rng.hh"

namespace tlpsim::workloads
{

Vertex
Graph::maxDegreeVertex() const
{
    Vertex best = 0;
    std::uint64_t best_deg = 0;
    for (Vertex v = 0; v < numVertices(); ++v) {
        if (degree(v) > best_deg) {
            best_deg = degree(v);
            best = v;
        }
    }
    return best;
}

std::uint64_t
Graph::maxDegree() const
{
    std::uint64_t best = 0;
    for (Vertex v = 0; v < numVertices(); ++v)
        best = std::max(best, degree(v));
    return best;
}

double
Graph::avgDegree() const
{
    return numVertices() == 0
        ? 0.0
        : static_cast<double>(numEdges()) / numVertices();
}

const char *
toString(GraphKind k)
{
    switch (k) {
      case GraphKind::Web: return "web";
      case GraphKind::Road: return "road";
      case GraphKind::Twitter: return "twitter";
      case GraphKind::Kron: return "kron";
      case GraphKind::Urand: return "urand";
    }
    return "?";
}

namespace
{

using EdgeList = std::vector<std::pair<Vertex, Vertex>>;

/**
 * One RMAT edge draw with recursive quadrant selection: r < a picks
 * top-left (no bit), then top-right (dst), bottom-left (src) and
 * bottom-right (both). Branch-free, since the quadrant is unpredictable.
 */
std::pair<Vertex, Vertex>
rmatEdge(Rng &rng, unsigned scale, double a, double b, double c)
{
    const double ab = a + b;
    const double abc = a + b + c;
    Vertex src = 0;
    Vertex dst = 0;
    for (unsigned bit = 0; bit < scale; ++bit) {
        double r = rng.uniform();
        src |= static_cast<Vertex>(r >= ab) << bit;
        dst |= static_cast<Vertex>((r >= a) & ((r < ab) | (r >= abc)))
            << bit;
    }
    return {src, dst};
}

EdgeList
genRmat(Rng &rng, unsigned scale, std::uint64_t num_edges, double a,
        double b, double c)
{
    EdgeList edges;
    edges.reserve(num_edges);
    for (std::uint64_t i = 0; i < num_edges; ++i) {
        auto [u, v] = rmatEdge(rng, scale, a, b, c);
        if (u != v)
            edges.emplace_back(u, v);
    }
    return edges;
}

EdgeList
genUrand(Rng &rng, Vertex n, std::uint64_t num_edges)
{
    EdgeList edges;
    edges.reserve(num_edges);
    for (std::uint64_t i = 0; i < num_edges; ++i) {
        auto u = static_cast<Vertex>(rng.below(n));
        auto v = static_cast<Vertex>(rng.below(n));
        if (u != v)
            edges.emplace_back(u, v);
    }
    return edges;
}

/**
 * Preferential attachment (web-like): each new vertex links to d targets
 * sampled from the endpoint pool, producing a power-law with the spatial
 * locality of crawl order.
 */
EdgeList
genWeb(Rng &rng, Vertex n, unsigned d)
{
    EdgeList edges;
    edges.reserve(static_cast<std::uint64_t>(n) * d);
    std::vector<Vertex> pool;
    pool.reserve(static_cast<std::uint64_t>(n) * d * 2);
    pool.push_back(0);
    for (Vertex v = 1; v < n; ++v) {
        for (unsigned k = 0; k < d; ++k) {
            Vertex target = pool[rng.below(pool.size())];
            if (target != v) {
                edges.emplace_back(v, target);
                pool.push_back(target);
            }
            pool.push_back(v);
        }
    }
    return edges;
}

/** Grid side for a road graph of >= n vertices (power-of-two square). */
Vertex
roadSide(Vertex n)
{
    auto side = static_cast<Vertex>(1);
    while (static_cast<std::uint64_t>(side) * side < n)
        side <<= 1;
    return side;
}

/** 2D mesh with 4-neighborhood plus sparse random shortcuts (road-like). */
EdgeList
genRoad(Rng &rng, Vertex side)
{
    Vertex n = side * side;
    EdgeList edges;
    edges.reserve(static_cast<std::uint64_t>(n) * 2 + n / 16);
    for (Vertex y = 0; y < side; ++y) {
        for (Vertex x = 0; x < side; ++x) {
            Vertex v = y * side + x;
            if (x + 1 < side)
                edges.emplace_back(v, v + 1);
            if (y + 1 < side)
                edges.emplace_back(v, v + side);
        }
    }
    // Highways: a few long-range links, as in real road networks.
    for (Vertex i = 0; i < n / 16; ++i) {
        auto u = static_cast<Vertex>(rng.below(n));
        auto v = static_cast<Vertex>(rng.below(n));
        if (u != v)
            edges.emplace_back(u, v);
    }
    return edges;
}

/** Edge lists at least this long are packed by several threads. */
constexpr std::size_t kParallelCsrEdges = std::size_t{1} << 20;
constexpr unsigned kMaxCsrThreads = 8;

/**
 * Split vertices [0, n) into @p shards contiguous ranges and run
 * fn(lo, span) on each concurrently, covering [lo, lo + span). A shard
 * whose thread cannot be started runs inline instead.
 */
template <typename Fn>
void
forEachVertexShard(Vertex n, unsigned shards, const Fn &fn)
{
    auto run = [&](unsigned t) {
        auto first = [&](unsigned s) {
            return static_cast<Vertex>(std::uint64_t{n} * s / shards);
        };
        fn(first(t), first(t + 1) - first(t));
    };
    std::vector<std::thread> pool;
    pool.reserve(shards);
    for (unsigned t = 1; t < shards; ++t) {
        try {
            pool.emplace_back(run, t);
        } catch (const std::system_error &) {
            run(t);
        }
    }
    run(0);
    for (auto &th : pool)
        th.join();
}

/**
 * Symmetrize an edge list and pack it into CSR form.
 *
 * Each shard owns a vertex range and scans the whole edge list in order,
 * counting and then filling only its own vertices. Every adjacency list
 * therefore keeps edge-list order, and the graph is the same at any
 * shard count. offsets doubles as the fill cursor, which leaves
 * offsets[v] at the end of v's list; one shift restores it.
 */
Graph
buildCsr(Vertex n, const EdgeList &edges)
{
    const unsigned shards = edges.size() < kParallelCsrEdges
        ? 1
        : std::clamp(std::thread::hardware_concurrency(), 1u,
                     kMaxCsrThreads);
    Graph g;
    g.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
    forEachVertexShard(n, shards, [&](Vertex lo, Vertex span) {
        for (const auto &[u, v] : edges) {
            if (u - lo < span)
                ++g.offsets[u + 1];
            if (v - lo < span)
                ++g.offsets[v + 1];
        }
    });
    for (std::size_t i = 1; i < g.offsets.size(); ++i)
        g.offsets[i] += g.offsets[i - 1];
    g.neighbors.resize(g.offsets.back());
    forEachVertexShard(n, shards, [&](Vertex lo, Vertex span) {
        for (const auto &[u, v] : edges) {
            if (u - lo < span)
                g.neighbors[g.offsets[u]++] = v;
            if (v - lo < span)
                g.neighbors[g.offsets[v]++] = u;
        }
    });
    std::copy_backward(g.offsets.begin(), g.offsets.end() - 2,
                       g.offsets.end() - 1);
    g.offsets[0] = 0;
    return g;
}

} // namespace

Graph
makeGraph(GraphKind kind, unsigned scale, unsigned avg_degree,
          std::uint64_t seed)
{
    Rng rng(seed ^ (static_cast<std::uint64_t>(kind) << 56)
            ^ (std::uint64_t{scale} << 48));
    auto n = Vertex{1} << scale;
    // avg_degree counts directed edges per vertex post-symmetrization, so
    // draw n*d/2 undirected edges.
    std::uint64_t num_edges = (static_cast<std::uint64_t>(n) * avg_degree) / 2;

    EdgeList edges;
    switch (kind) {
      case GraphKind::Kron:
        edges = genRmat(rng, scale, num_edges, 0.57, 0.19, 0.19);
        break;
      case GraphKind::Twitter:
        edges = genRmat(rng, scale, num_edges, 0.62, 0.17, 0.17);
        break;
      case GraphKind::Web:
        edges = genWeb(rng, n, std::max(1u, avg_degree / 2));
        break;
      case GraphKind::Urand:
        edges = genUrand(rng, n, num_edges);
        break;
      case GraphKind::Road:
        n = roadSide(n) * roadSide(n);   // grid must be square
        edges = genRoad(rng, roadSide(n));
        break;
    }
    return buildCsr(n, edges);
}

namespace
{

using CacheKey = std::tuple<int, unsigned, unsigned, std::uint64_t>;

/** One cache entry; graph is written once under m and shared read-only.
 *  If construction throws, error is propagated to every waiter and the
 *  slot is dropped from the cache so a later request can retry. */
struct GraphSlot
{
    std::mutex m;
    std::condition_variable cv;
    bool ready = false;
    std::shared_ptr<const Graph> graph;
    std::exception_ptr error;
};

std::mutex g_graph_mutex;
std::map<CacheKey, std::shared_ptr<GraphSlot>> g_graph_cache;

/** Resident cap: enough for every graph of a set to stay warm while
 *  parallel trace builds are in flight. Evicted graphs stay alive for as
 *  long as any worker still holds its shared_ptr. */
constexpr std::size_t kMaxResidentGraphs = 4;

} // namespace

std::shared_ptr<const Graph>
GraphCache::get(GraphKind kind, unsigned scale, unsigned avg_degree,
                std::uint64_t seed)
{
    CacheKey key{static_cast<int>(kind), scale, avg_degree, seed};
    std::shared_ptr<GraphSlot> slot;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(g_graph_mutex);
        auto it = g_graph_cache.find(key);
        if (it == g_graph_cache.end()) {
            if (g_graph_cache.size() >= kMaxResidentGraphs)
                g_graph_cache.erase(g_graph_cache.begin());
            it = g_graph_cache.emplace(key, std::make_shared<GraphSlot>())
                     .first;
            builder = true;
        }
        slot = it->second;
    }
    if (builder) {
        std::shared_ptr<const Graph> built;
        std::exception_ptr error;
        try {
            built = std::make_shared<const Graph>(
                makeGraph(kind, scale, avg_degree, seed));
        } catch (...) {
            error = std::current_exception();
        }
        if (error) {
            // Evictions may have replaced the key; only drop our slot.
            std::lock_guard<std::mutex> cache_lock(g_graph_mutex);
            auto it = g_graph_cache.find(key);
            if (it != g_graph_cache.end() && it->second == slot)
                g_graph_cache.erase(it);
        }
        {
            std::lock_guard<std::mutex> lock(slot->m);
            slot->graph = built;
            slot->error = error;
            slot->ready = true;
        }
        slot->cv.notify_all();
        if (error)
            std::rethrow_exception(error);
        return built;
    }
    std::unique_lock<std::mutex> lock(slot->m);
    slot->cv.wait(lock, [&] { return slot->ready; });
    if (slot->error)
        std::rethrow_exception(slot->error);
    return slot->graph;
}

void
GraphCache::clear()
{
    std::lock_guard<std::mutex> lock(g_graph_mutex);
    g_graph_cache.clear();
}

} // namespace tlpsim::workloads
