/**
 * @file
 * Shared pieces of the tlpsim benchmark binary: the named workloads,
 * their set-up (trace recording and, for replay workloads, .tlt files),
 * the design-point grid, the per-point correctness check and a minimal
 * JSON writer. Everything goes through the simulator's public API.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using namespace tlpsim;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One named benchmark workload: a grid of design points, each a list
 *  of workload names (one per core), swept over baseline plus the
 *  paper's schemes. */
struct WorkloadDef
{
    std::string name;
    workloads::SetSize set;
    unsigned cores;
    InstrCount warmup_instrs;
    InstrCount sim_instrs;
    std::vector<std::vector<std::string>> points;
    /** Record every slot's trace to a .tlt file during set-up and replay
     *  the files, instead of replaying the in-memory recordings. */
    bool replay_files;
};

const std::vector<WorkloadDef> &workloadDefs();

/** Command-line options of the benchmark binary. */
struct Options
{
    std::string mode;            ///< sweep | layers | list
    std::string workload;
    std::uint64_t seed = 1;
    std::string dir;             ///< scratch directory, created and owned
    bool quick = false;          ///< minimal scale, for the self-test
    long corrupt_point = -1;     ///< self-test: corrupt this point's stats
};

/** Wall-clock breakdown of set-up, filled when requested. */
struct SetupTimes
{
    double graph_build_s = 0.0;
    double record_s = 0.0;
    std::uint64_t recorded_instrs = 0;
    double write_s = 0.0;
    std::uint64_t written_records = 0;
    double verify_s = 0.0;
};

/** A workload after set-up: every design point's trace is ready. */
struct Prepared
{
    std::uint64_t seed = 0;
    InstrCount trace_instrs = 0;    ///< records per slot (warmup + sim)
    /** In-binary kernels the points use, recorded in memory. */
    std::vector<workloads::WorkloadSpec> kernels;
    /** What the slots replay: the kernels themselves, or their .tlt
     *  files for replay workloads (same order as kernels). */
    std::vector<workloads::WorkloadSpec> specs;
    std::vector<workloads::Mix> mixes;     ///< slots index into specs
    std::vector<SystemConfig> grid;        ///< baseline first
    std::size_t tlp_index = 0;             ///< grid index of "tlp"

    std::size_t points() const { return mixes.size() * grid.size(); }
    /** Design point p is mix p / grid.size() under grid p % grid.size(). */
    const workloads::Mix &mixOf(std::size_t p) const
    {
        return mixes[p / grid.size()];
    }
    const SystemConfig &cfgOf(std::size_t p) const
    {
        return grid[p % grid.size()];
    }
    /** Runner key of point p: the simulator's own point key, prefixed
     *  with the seed the traces were recorded with. */
    std::string key(std::size_t p) const;
    std::string label(std::size_t p) const;
    /** Fresh, independent trace streams for point p's cores. */
    std::vector<std::shared_ptr<TraceSource>> sources(std::size_t p) const;
    /** Nominal simulated instructions of one sweep. */
    double nominalInstrs() const;
};

const WorkloadDef &findWorkload(const std::string &name);

/** Runner workers of every sweep: 3, and at most one fewer than the
 *  host's threads (at least 1). The thread left over runs run.py
 *  and the OS, so they do not stall a worker; in alternating trials on
 *  a shared 4-thread host, 4 workers gave the least steady sweep times. */
unsigned workers();

/** Call @p fn on each of the first @p n records of @p spec's trace,
 *  streamed through a fresh traceSource(spec, n, seed). */
template <typename Fn>
void
forEachRecord(const workloads::WorkloadSpec &spec, InstrCount n,
              std::uint64_t seed, Fn &&fn)
{
    auto src = experiment::traceSource(spec, n, seed);
    std::vector<TraceInstr> buf(TraceReader::kChunkRecords);
    for (InstrCount left = n; left > 0;) {
        const std::size_t got = src->read(
            buf.data(), static_cast<std::size_t>(
                            std::min<InstrCount>(left, buf.size())));
        if (got == 0)
            throw std::runtime_error("trace of " + spec.name
                                     + " ended early");
        for (std::size_t i = 0; i < got; ++i)
            fn(buf[i]);
        left -= got;
    }
}

/** Record every trace the workload's points need (and write and verify
 *  the .tlt files of a replay workload) under @p dir. */
Prepared prepare(const WorkloadDef &def, const Options &opt,
                 const std::string &dir, SetupTimes *times = nullptr);

/** Why @p r is not a correct result for @p cfg; empty when it is. */
std::string checkPoint(const SimResult &r, const SystemConfig &cfg);

/** Bit-exact comparison of everything a run reports. */
bool sameResult(const SimResult &a, const SimResult &b);

/** Outcome of one sweep through the Runner. */
struct Sweep
{
    std::vector<std::optional<SimResult>> results;   ///< per point
    std::vector<std::string> errors;                 ///< per point
    std::vector<double> point_s;                     ///< per point
    double wall_s = 0.0;
    std::size_t failed = 0;
};

/** Run every design point through a Runner with workers() workers and a
 *  cold ResultStore at @p store_dir, then check each point. */
Sweep runSweep(const Prepared &prep, const Options &opt,
               const std::string &store_dir);

/** Fingerprint of every point's key and full result. */
std::string digest(const Prepared &prep, const Sweep &sweep);

/** Geomean over the mixes of TLP IPC / baseline IPC. */
double tlpIpcRatio(const Prepared &prep, const Sweep &sweep);

/** Summed dram.transactions of the baseline and of the TLP points. */
struct DramTx
{
    double base = 0.0;
    double tlp = 0.0;
};
DramTx tlpDramTx(const Prepared &prep, const Sweep &sweep);

/** Peak resident set of this process, MiB. */
double peakRssMib();

/** One-line JSON object writer (keys in insertion order). */
class Json
{
  public:
    Json &num(const std::string &key, double v);
    Json &integer(const std::string &key, std::uint64_t v);
    Json &str(const std::string &key, const std::string &v);
    Json &raw(const std::string &key, const std::string &json);
    Json &strings(const std::string &key,
                  const std::vector<std::string> &v);
    std::string done() const { return "{" + body_ + "}"; }

  private:
    Json &field(const std::string &key, const std::string &value);
    std::string body_;
};

std::string jsonQuote(const std::string &s);

/** Host facts every run records next to its numbers: compiler, build
 *  type, hardware threads and worker count. */
Json hostJson();

int runSweepMode(const Options &opt);
int runLayersMode(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
