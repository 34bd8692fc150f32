/**
 * Concurrency stress suite — the tests this repo runs under
 * ThreadSanitizer (and the existing ASan cell) in CI.
 *
 * Covered surfaces, each a real cross-thread interaction in the sweep
 * engine rather than a synthetic two-thread toy:
 *
 *   - the Runner at high job counts over the shared (mutex-guarded)
 *     trace/graph cache, starting cold so workers race to populate it,
 *     with 1-vs-8-jobs bit-identity as the functional oracle;
 *   - two ResultStore writers racing on one store directory (the
 *     documented "two sweep shards on one store" contract:
 *     write-temp-then-rename, last-writer-wins, both rows valid);
 *   - the threaded CSR build of graphs above its parallel threshold,
 *     with serial-build golden digests as the oracle, and four
 *     GraphCache getters racing on one such graph;
 *   - watchdog expiry and cross-thread cancellation concurrent with
 *     Simulator::run's 64 Ki-cycle polling, including the thread_local
 *     independence of the watchdog state and the CancelFlag
 *     release/acquire pairing (the codebase's intended lock-free site).
 *
 * Everything here must pass with -fsanitize=thread; a data race in any
 * of these paths is a test failure even when the values happen to come
 * out right.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/watchdog.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"
#include "test_util.hh"

using namespace tlpsim;
using namespace tlpsim::experiment;
namespace fs = std::filesystem;

namespace
{

SystemConfig
tinyConfig(const SchemeConfig &scheme = SchemeConfig::baseline())
{
    SystemConfig cfg = SystemConfig::cascadeLake(1);
    cfg.warmup_instrs = 5'000;
    cfg.sim_instrs = 20'000;
    cfg.scheme = scheme;
    return cfg;
}

/** A design point far too long to finish: only a watchdog timeout or a
 *  cancellation can end it. */
SystemConfig
endlessConfig()
{
    SystemConfig cfg = SystemConfig::cascadeLake(1);
    cfg.warmup_instrs = 0;
    cfg.sim_instrs = 2'000'000'000;
    return cfg;
}

std::string
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / ("tlpsim_" + name);
    fs::remove_all(dir);
    return dir.string();
}

} // namespace

// --------------------------------------------------------------------------
// CancelFlag / SimCancelledError semantics
// --------------------------------------------------------------------------

// The Runner's retry loop catches SimTimeoutError and re-runs the
// point; a cancellation must never take that path.
static_assert(!std::is_base_of_v<SimTimeoutError, SimCancelledError>,
              "SimCancelledError must not be retried as a timeout");

TEST(CancelFlag, RequestIsStickyAndIdempotent)
{
    watchdog::CancelFlag flag;
    EXPECT_FALSE(flag.requested());
    flag.request();
    EXPECT_TRUE(flag.requested());
    flag.request();   // idempotent
    EXPECT_TRUE(flag.requested());
}

TEST(CancelFlag, PollThrowsOnceThenUnbinds)
{
    watchdog::CancelFlag flag;
    watchdog::bindCancel(&flag);
    watchdog::poll();   // not requested yet: no-op
    flag.request();
    EXPECT_THROW(watchdog::poll(), SimCancelledError);
    // poll() unbound the flag before throwing, so the unwound thread can
    // keep calling poll() (e.g. from a destructor-run drain) safely.
    EXPECT_NO_THROW(watchdog::poll());
}

TEST(CancelFlag, ReleaseAcquireMakesPriorWritesVisible)
{
    // The documented reason the flag is release/acquire instead of
    // relaxed: data written before request() must be visible to the
    // thread that observes requested(). TSan verifies the ordering is
    // real; the assert verifies the value.
    watchdog::CancelFlag flag;
    int payload = 0;
    std::thread controller([&] {
        payload = 42;
        flag.request();
    });
    while (!flag.requested())
        std::this_thread::yield();
    EXPECT_EQ(payload, 42);
    controller.join();
}

// --------------------------------------------------------------------------
// Watchdog expiry / cancellation concurrent with Simulator::run polling
// --------------------------------------------------------------------------

TEST(WatchdogConcurrency, ExpiryUnwindsConcurrentRuns)
{
    // Several threads each arm a tiny budget and start a run that could
    // never finish; every one must unwind with SimTimeoutError via the
    // 64 Ki-cycle poll, independently (the state is thread_local).
    constexpr int kThreads = 4;
    std::atomic<int> timeouts{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&timeouts, t] {
            auto ws = workloads::singleCoreWorkloads(
                workloads::SetSize::Tiny);
            Trace trace = workloads::buildTrace(
                ws[static_cast<std::size_t>(t) % ws.size()], 4'000, 1);
            Simulator sim(endlessConfig(),
                          std::vector<const Trace *>{&trace});
            watchdog::arm(0.05);
            try {
                sim.run();
            } catch (const SimTimeoutError &) {
                ++timeouts;
            }
            watchdog::disarm();
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(timeouts.load(), kThreads);
}

TEST(WatchdogConcurrency, ArmedThreadTimesOutWhileUnarmedThreadFinishes)
{
    // thread_local independence: a timing-out neighbour must not leak
    // its deadline (or its unwinding) into a thread that never armed.
    std::atomic<bool> timed_out{false};
    std::atomic<bool> finished{false};

    std::thread doomed([&] {
        auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
        Trace trace = workloads::buildTrace(ws.front(), 4'000, 1);
        Simulator sim(endlessConfig(), std::vector<const Trace *>{&trace});
        watchdog::arm(0.05);
        try {
            sim.run();
        } catch (const SimTimeoutError &) {
            timed_out = true;
        }
        watchdog::disarm();
    });
    std::thread healthy([&] {
        auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
        Trace trace = workloads::buildTrace(ws.front(), 4'000, 1);
        Simulator sim(tinyConfig(), std::vector<const Trace *>{&trace});
        SimResult r = sim.run();
        finished = !r.stats.empty();
    });
    doomed.join();
    healthy.join();
    EXPECT_TRUE(timed_out.load());
    EXPECT_TRUE(finished.load());
}

TEST(WatchdogConcurrency, CrossThreadCancelUnwindsSimulatorRun)
{
    // The CancelFlag end to end: a controller thread requests while the
    // simulation thread is deep inside Simulator::run; the run unwinds
    // with SimCancelledError at its next poll.
    watchdog::CancelFlag flag;
    std::atomic<bool> cancelled{false};
    std::atomic<bool> mis_typed{false};

    std::thread sim_thread([&] {
        auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
        Trace trace = workloads::buildTrace(ws.front(), 4'000, 1);
        Simulator sim(endlessConfig(), std::vector<const Trace *>{&trace});
        watchdog::bindCancel(&flag);
        try {
            sim.run();
        } catch (const SimCancelledError &) {
            cancelled = true;
        } catch (...) {
            mis_typed = true;
        }
        watchdog::bindCancel(nullptr);
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    flag.request();
    sim_thread.join();
    EXPECT_TRUE(cancelled.load());
    EXPECT_FALSE(mis_typed.load());
}

// --------------------------------------------------------------------------
// Runner stress: high job counts over the shared trace/graph cache
// --------------------------------------------------------------------------

/**
 * The sanitizer-facing version of the determinism guarantee: start with
 * a cold process-wide trace cache so eight workers race to record the
 * same workloads, and require the resulting grid to be bit-identical to
 * a sequential run (satellite of the 1-vs-N contract in test_runner.cpp,
 * here at 8 jobs and explicitly cold so TSan sees the racy window).
 */
TEST(RunnerConcurrency, ColdCacheGridBitIdentical1v8Jobs)
{
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    ASSERT_GE(ws.size(), 4u);
    ws.resize(4);
    std::vector<SystemConfig> grid{tinyConfig(),
                                   tinyConfig(SchemeConfig::tlp())};

    auto run_grid = [&](unsigned jobs) {
        clearTraceCache();   // every worker sees a cold cache
        Runner r(jobs);
        for (const auto &cfg : grid) {
            for (const auto &w : ws)
                r.submitSingle(w, cfg);
        }
        std::vector<SimResult> out;
        for (const auto &cfg : grid) {
            for (const auto &w : ws)
                out.push_back(r.single(w, cfg));
        }
        return out;
    };

    std::vector<SimResult> seq = run_grid(1);
    std::vector<SimResult> par = run_grid(8);

    ASSERT_EQ(seq.size(), par.size());
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(seq[i].stats, par[i].stats) << "design point " << i;
        EXPECT_EQ(seq[i].ipc, par[i].ipc) << "design point " << i;
        EXPECT_EQ(seq[i].window_cycles, par[i].window_cycles)
            << "design point " << i;
    }
}

TEST(RunnerConcurrency, ManyGettersOnOneJob)
{
    // Eight threads block in get() on the same key while a worker (or a
    // stealing getter) computes it; all must see the same object.
    Runner r(2);
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    r.submitSingle(ws.front(), tinyConfig());
    const std::string key = singlePointKey(ws.front(), tinyConfig());

    constexpr int kGetters = 8;
    std::vector<const SimResult *> seen(kGetters, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kGetters);
    for (int i = 0; i < kGetters; ++i)
        threads.emplace_back([&r, &key, &seen, i] {
            seen[static_cast<std::size_t>(i)] = &r.get(key);
        });
    for (auto &t : threads)
        t.join();
    for (int i = 1; i < kGetters; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
}

TEST(RunnerConcurrency, RequestCancelUnwindsRunningJobs)
{
    // A grid of never-finishing points on four workers; requestCancel()
    // from the main thread must unwind every one with SimCancelledError
    // (not a timeout, not a hang), including points the getter steals
    // after the flag is already up.
    Runner r(4);
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    ASSERT_GE(ws.size(), 2u);
    SystemConfig cfg = endlessConfig();
    for (std::size_t i = 0; i < 6; ++i) {
        const auto &w = ws[i % ws.size()];
        SystemConfig point = cfg;
        point.sim_instrs += i;   // distinct keys
        r.submitSingle(w, point);
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    r.requestCancel();
    EXPECT_TRUE(r.cancelRequested());

    int cancelled = 0;
    for (std::size_t i = 0; i < 6; ++i) {
        const auto &w = ws[i % ws.size()];
        SystemConfig point = cfg;
        point.sim_instrs += i;
        try {
            r.single(w, point);
        } catch (const SimCancelledError &) {
            ++cancelled;
        }
    }
    EXPECT_EQ(cancelled, 6);
}

// --------------------------------------------------------------------------
// Threaded CSR build of large graphs
// --------------------------------------------------------------------------

/**
 * Scale 19 is the smallest scale at which every generator's edge list
 * crosses the threaded-build threshold. The digests were recorded from
 * the serial build, so these pin both the bit-identity of the threaded
 * fill and, under TSan, its freedom from data races.
 */
TEST(GraphConcurrency, ThreadedBuildMatchesSerialDigests)
{
    using workloads::GraphKind;
    const std::pair<GraphKind, std::uint64_t> golden[] = {
        {GraphKind::Web, 0xe7517d8a5a40c828ull},
        {GraphKind::Road, 0x579794f7344b7150ull},
        {GraphKind::Twitter, 0x410f5cdef5aaed73ull},
        {GraphKind::Kron, 0x1b18bba5078a125aull},
        {GraphKind::Urand, 0x8596e113e7e3bb8eull},
    };
    for (const auto &[kind, want] : golden) {
        EXPECT_EQ(test::graphDigest(workloads::makeGraph(kind, 19, 8, 42)),
                  want)
            << workloads::toString(kind);
    }
}

TEST(GraphConcurrency, CacheGettersShareOneThreadedBuild)
{
    // Four getters race on one cold key; one builds (spawning its own
    // CSR threads) while the others wait, and all share the result.
    workloads::GraphCache::clear();
    constexpr int kGetters = 4;
    std::vector<const workloads::Graph *> seen(kGetters, nullptr);
    std::vector<std::thread> threads;
    threads.reserve(kGetters);
    for (int i = 0; i < kGetters; ++i)
        threads.emplace_back([&seen, i] {
            seen[static_cast<std::size_t>(i)] =
                workloads::GraphCache::get(workloads::GraphKind::Urand, 19,
                                           8, 42)
                    .get();
        });
    for (auto &t : threads)
        t.join();
    for (int i = 1; i < kGetters; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], seen[0]);
    auto g = workloads::GraphCache::get(workloads::GraphKind::Urand, 19, 8,
                                        42);
    EXPECT_EQ(g.get(), seen[0]);
    EXPECT_EQ(test::graphDigest(*g), 0x8596e113e7e3bb8eull);
    workloads::GraphCache::clear();
}

// --------------------------------------------------------------------------
// Two ResultStore writers racing on one store directory
// --------------------------------------------------------------------------

TEST(StoreConcurrency, TwoWritersOneDirEveryRowStaysValid)
{
    // The documented multi-shard contract: two independent ResultStore
    // instances (two processes in production, two threads under TSan
    // here) hammer the same directory, overlapping on every key. Each
    // save is write-temp-then-rename, so after the dust settles every
    // row must verify and deserialize — last-writer-wins, never torn.
    const std::string dir = freshDir("two_writers");
    constexpr int kKeys = 32;
    constexpr int kRounds = 8;

    auto writer = [&dir](int salt) {
        store::ResultStore mine(dir);
        for (int round = 0; round < kRounds; ++round) {
            for (int k = 0; k < kKeys; ++k) {
                Config row;
                row.set(store::kStatusKey, store::kStatusOk);
                // Writers disagree on purpose: any surviving row is
                // valid, we only require it to be *intact*.
                row.set("value", k * 1000 + salt);
                mine.save("key-" + std::to_string(k), row);
            }
        }
    };

    std::thread a(writer, 1);
    std::thread b(writer, 2);
    a.join();
    b.join();

    store::ResultStore reader(dir);
    for (int k = 0; k < kKeys; ++k) {
        auto row = reader.load("key-" + std::to_string(k));
        ASSERT_TRUE(row.has_value()) << "key-" << k;
        EXPECT_EQ(row->getString(store::kStatusKey, ""), store::kStatusOk);
        const long long v = row->getInt("value", -1);
        EXPECT_TRUE(v == k * 1000 + 1 || v == k * 1000 + 2)
            << "key-" << k << " holds torn value " << v;
    }
    EXPECT_EQ(reader.counters().quarantined, 0u);
}

TEST(StoreConcurrency, ConcurrentLoadersDuringWrites)
{
    // Readers racing the writers: a load() must only ever see a miss or
    // a fully-published row — never quarantine anything, never crash.
    const std::string dir = freshDir("load_race");
    constexpr int kKeys = 16;
    std::atomic<bool> stop{false};
    std::atomic<int> bad_rows{0};

    std::thread writer([&] {
        store::ResultStore mine(dir);
        for (int round = 0; round < 12; ++round) {
            for (int k = 0; k < kKeys; ++k) {
                Config row;
                row.set(store::kStatusKey, store::kStatusOk);
                row.set("value", k);
                mine.save("key-" + std::to_string(k), row);
            }
        }
        stop = true;
    });
    std::thread loader([&] {
        store::ResultStore mine(dir);
        while (!stop.load()) {
            for (int k = 0; k < kKeys; ++k) {
                if (auto row = mine.load("key-" + std::to_string(k))) {
                    if (row->getInt("value", -1) != k)
                        ++bad_rows;
                }
            }
        }
    });
    writer.join();
    loader.join();
    EXPECT_EQ(bad_rows.load(), 0);
}
