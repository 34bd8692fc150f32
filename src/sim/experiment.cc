#include "sim/experiment.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <system_error>
#include <tuple>

#include "common/config.hh"
#include "tracefile/file_source.hh"

namespace tlpsim::experiment
{

InstrCount
envInstrs(InstrCount fallback)
{
    return envUnsigned("TLPSIM_INSTRS", fallback);
}

InstrCount
envWarmup(InstrCount fallback)
{
    return envUnsigned("TLPSIM_WARMUP", fallback);
}

int
envMixes(int fallback)
{
    return static_cast<int>(
        envUnsigned("TLPSIM_MIXES", static_cast<std::uint64_t>(fallback), 0,
                    std::numeric_limits<int>::max()));
}

namespace
{

/** (workload name, instructions, seed): one recording. */
using TraceKey = std::tuple<std::string, InstrCount, std::uint64_t>;

std::string
errnoText()
{
    return std::error_code(errno, std::generic_category()).message();
}

/**
 * One built-in recording, spilled to a temporary file that is unlinked as
 * soon as it is created, so it vanishes with the process however that
 * ends. The recording thread holds m until the file is complete; every
 * other caller for the key blocks on m, then reads the immutable file
 * through its own SpillSource.
 */
struct Spill
{
    std::mutex m;
    std::exception_ptr error;   ///< why recording failed, if it did
    std::string name;           ///< workload name
    int fd = -1;
    std::uint64_t records = 0;

    ~Spill()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    record(const workloads::WorkloadSpec &spec, InstrCount instrs,
           std::uint64_t seed)
    {
        name = spec.name;
        const char *env = std::getenv("TMPDIR");
        const std::string dir = env != nullptr && *env != '\0' ? env : "/tmp";
        std::string path = dir + "/tlpsim-spill-XXXXXX";
        fd = ::mkostemp(path.data(), O_CLOEXEC);
        if (fd < 0) {
            const std::string why = errnoText();
            throw ConfigError("workload '" + name
                              + "': cannot create a trace spill file in '"
                              + dir + "': " + why);
        }
        ::unlink(path.c_str());
        records = workloads::recordTrace(
            spec, instrs, seed, [this](const TraceInstr *p, std::size_t n) {
                append(p, n);
            });
        if (records == 0) {
            throw ConfigError("trace '" + name
                              + "' is empty: nothing to simulate");
        }
    }

    /** A short write is retried, so a full disk surfaces as the errno of
     *  the write that cannot progress. */
    void
    append(const TraceInstr *p, std::size_t n)
    {
        const char *bytes = reinterpret_cast<const char *>(p);
        for (std::size_t left = n * sizeof(TraceInstr); left > 0;) {
            const ssize_t put = ::write(fd, bytes, left);
            if (put < 0) {
                const std::string why = errnoText();
                throw ConfigError("workload '" + name
                                  + "': cannot write its trace spill "
                                    "file: "
                                  + why);
            }
            bytes += put;
            left -= static_cast<std::size_t>(put);
        }
    }
};

/** One reader of a Spill: its own offset, wrapping at the end of the
 *  pass, pread straight into the caller's buffer. */
class SpillSource final : public TraceSource
{
  public:
    explicit SpillSource(std::shared_ptr<const Spill> spill)
        : spill_(std::move(spill))
    {
    }

    std::uint64_t size() const override { return spill_->records; }
    const std::string &name() const override { return spill_->name; }

    std::size_t
    read(TraceInstr *out, std::size_t n) override
    {
        const std::size_t take = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, spill_->records - pos_));
        const std::size_t bytes = take * sizeof(TraceInstr);
        const off_t at = static_cast<off_t>(pos_ * sizeof(TraceInstr));
        // The file is complete and never changes: only an I/O error
        // reads short.
        const ssize_t got = ::pread(spill_->fd, out, bytes, at);
        if (got != static_cast<ssize_t>(bytes)) {
            const std::string why = got < 0 ? errnoText() : "short read";
            throw ConfigError("workload '" + spill_->name
                              + "': cannot read its trace spill file at "
                                "byte "
                              + std::to_string(at) + ": " + why);
        }
        pos_ += take;
        if (pos_ == spill_->records)
            pos_ = 0;
        return take;
    }

  private:
    std::shared_ptr<const Spill> spill_;
    std::uint64_t pos_ = 0;
};

std::mutex g_spill_mutex;
std::map<TraceKey, std::shared_ptr<Spill>> g_spills;

/** The spill of (spec, instrs, seed), recording it on first use. If
 *  recording throws, every caller waiting on it gets the error and the
 *  key is dropped, so a later call retries. */
std::shared_ptr<const Spill>
spilled(const workloads::WorkloadSpec &spec, InstrCount instrs,
        std::uint64_t seed)
{
    const TraceKey key{spec.name, instrs, seed};
    std::shared_ptr<Spill> spill;
    std::unique_lock<std::mutex> recording;
    {
        std::lock_guard<std::mutex> lock(g_spill_mutex);
        std::shared_ptr<Spill> &slot = g_spills[key];
        if (slot == nullptr) {
            slot = std::make_shared<Spill>();
            // Nobody else has seen the new spill yet: this cannot block.
            recording = std::unique_lock<std::mutex>(slot->m);
        }
        spill = slot;
    }
    if (recording.owns_lock()) {
        try {
            spill->record(spec, instrs, seed);
        } catch (...) {
            spill->error = std::current_exception();
            recording.unlock();
            std::lock_guard<std::mutex> lock(g_spill_mutex);
            g_spills.erase(key);
        }
    } else {
        // Held by the recording thread until the spill is complete.
        std::lock_guard<std::mutex> wait(spill->m);
    }
    if (spill->error)
        std::rethrow_exception(spill->error);
    return spill;
}

} // namespace

std::shared_ptr<TraceSource>
traceSource(const workloads::WorkloadSpec &spec, InstrCount instrs,
            std::uint64_t seed)
{
    if (spec.isFile())
        return std::make_shared<tracefile::FileTraceSource>(spec.trace_path);
    return std::make_shared<SpillSource>(spilled(spec, instrs, seed));
}

SimResult
runSingleCore(const workloads::WorkloadSpec &workload, SystemConfig cfg)
{
    cfg.num_cores = 1;
    Simulator sim(cfg, {traceSource(workload,
                                    cfg.warmup_instrs + cfg.sim_instrs)});
    return sim.run();
}

SimResult
runMix(const std::vector<workloads::WorkloadSpec> &workloads,
       const workloads::Mix &mix, SystemConfig cfg)
{
    // The shared LLC, DRAM bandwidth, and queue depths are all sized
    // from num_cores, so a mix that doesn't occupy every core is a
    // config error — surfaced here with the mix named, before any trace
    // is recorded (the Simulator ctor would also catch it, namelessly).
    if (mix.cores() != cfg.num_cores) {
        throw ConfigError(
            "mix '" + mix.name + "' names " + std::to_string(mix.cores())
            + " workload(s) but cores = " + std::to_string(cfg.num_cores)
            + "; a mix needs exactly one workload per core");
    }
    std::vector<std::shared_ptr<TraceSource>> sources;
    for (int idx : mix.workload_index) {
        sources.push_back(traceSource(workloads[static_cast<size_t>(idx)],
                                      cfg.warmup_instrs + cfg.sim_instrs));
    }
    Simulator sim(cfg, std::move(sources));
    return sim.run();
}

namespace
{

/** "prefix.N" keys for a per-core vector, N = 0..size-1. */
template <typename T, typename Setter>
void
putVector(Config &cfg, const std::string &prefix,
          const std::vector<T> &values, Setter set_one)
{
    for (std::size_t i = 0; i < values.size(); ++i)
        set_one(cfg, prefix + "." + std::to_string(i), values[i]);
}

/** Read "prefix.0", "prefix.1", ... until the first absent index. An
 *  empty vector round-trips as no keys at all. */
template <typename Getter>
void
readVector(const Config &cfg, const std::string &prefix, Getter get_one)
{
    for (std::size_t i = 0;; ++i) {
        const std::string key = prefix + "." + std::to_string(i);
        if (!cfg.has(key))
            break;
        get_one(key);
    }
}

} // namespace

Config
simResultToConfig(const SimResult &r)
{
    Config cfg;
    cfg.set("scheme", r.scheme);
    cfg.set("num_cores", r.num_cores);
    cfg.set("sim_instrs", r.sim_instrs);
    cfg.set("hit_cycle_cap", r.hit_cycle_cap);
    putVector(cfg, "instrs", r.instrs,
              [](Config &c, const std::string &k, InstrCount v) {
                  c.set(k, v);
              });
    putVector(cfg, "ipc", r.ipc,
              [](Config &c, const std::string &k, double v) { c.set(k, v); });
    putVector(cfg, "warmup_end_cycle", r.warmup_end_cycle,
              [](Config &c, const std::string &k, Cycle v) { c.set(k, v); });
    putVector(cfg, "window_cycles", r.window_cycles,
              [](Config &c, const std::string &k, Cycle v) { c.set(k, v); });
    for (const auto &[name, value] : r.stats)
        cfg.set("stat." + name, value);
    return cfg;
}

SimResult
simResultFromConfig(const Config &cfg)
{
    SimResult r;
    r.scheme = cfg.getString("scheme");
    r.num_cores = cfg.getUnsigned32("num_cores", 0);
    r.sim_instrs = cfg.getUnsigned("sim_instrs", 0);
    r.hit_cycle_cap = cfg.getBool("hit_cycle_cap", false);
    readVector(cfg, "instrs", [&](const std::string &k) {
        r.instrs.push_back(cfg.getUnsigned(k, 0));
    });
    readVector(cfg, "ipc", [&](const std::string &k) {
        r.ipc.push_back(cfg.getDouble(k, 0.0));
    });
    readVector(cfg, "warmup_end_cycle", [&](const std::string &k) {
        r.warmup_end_cycle.push_back(cfg.getUnsigned(k, 0));
    });
    readVector(cfg, "window_cycles", [&](const std::string &k) {
        r.window_cycles.push_back(cfg.getUnsigned(k, 0));
    });
    const std::string stat_prefix = "stat.";
    for (const std::string &key : cfg.keys()) {
        if (key.compare(0, stat_prefix.size(), stat_prefix) == 0) {
            r.stats.emplace(key.substr(stat_prefix.size()),
                            cfg.getUnsigned(key, 0));
        }
    }
    return r;
}

double
percentDelta(double value, double baseline)
{
    if (baseline == 0.0)
        return 0.0;
    return (value / baseline - 1.0) * 100.0;
}

double
geomeanSpeedupPct(const std::vector<double> &speedup_pcts)
{
    if (speedup_pcts.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double pct : speedup_pcts)
        log_sum += std::log(std::max(1.0 + pct / 100.0, 1e-6));
    return (std::exp(log_sum / static_cast<double>(speedup_pcts.size()))
            - 1.0)
        * 100.0;
}

double
weightedSpeedupPct(const SimResult &scheme_result,
                   const SimResult &baseline_result,
                   const std::vector<double> &ipc_single)
{
    if (scheme_result.ipc.size() != baseline_result.ipc.size()
        || baseline_result.ipc.size() != ipc_single.size()) {
        throw ConfigError(
            "weighted speedup: slot count mismatch — scheme result has "
            + std::to_string(scheme_result.ipc.size())
            + " core(s), baseline result "
            + std::to_string(baseline_result.ipc.size())
            + ", ipc_single " + std::to_string(ipc_single.size())
            + "; all three must describe the same mix");
    }
    double scheme_ws = 0.0;
    double base_ws = 0.0;
    for (std::size_t c = 0; c < ipc_single.size(); ++c) {
        if (ipc_single[c] <= 0.0)
            continue;
        scheme_ws += scheme_result.ipc[c] / ipc_single[c];
        base_ws += baseline_result.ipc[c] / ipc_single[c];
    }
    return percentDelta(scheme_ws, base_ws);
}

TablePrinter::TablePrinter(std::vector<std::string> columns,
                           unsigned col_width)
    : columns_(std::move(columns)), col_width_(col_width)
{
}

void
TablePrinter::printHeader(const std::string &title) const
{
    std::printf("\n=== %s ===\n", title.c_str());
    for (const auto &c : columns_)
        std::printf("%-*s", col_width_, c.c_str());
    std::printf("\n");
    printSeparator();
}

void
TablePrinter::printRow(const std::vector<std::string> &cells) const
{
    for (const auto &c : cells)
        std::printf("%-*s", col_width_, c.c_str());
    std::printf("\n");
}

void
TablePrinter::printSeparator() const
{
    for (std::size_t i = 0; i < columns_.size() * col_width_; ++i)
        std::printf("-");
    std::printf("\n");
}

std::string
TablePrinter::fmt(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
TablePrinter::fmtPct(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.*f%%", precision, v);
    return buf;
}

} // namespace tlpsim::experiment
