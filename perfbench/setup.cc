#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "bench.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"
#include "tracefile/format.hh"
#include "workloads/graph.hh"

namespace perfbench
{

const std::vector<WorkloadDef> &
workloadDefs()
{
    using workloads::SetSize;
    static const std::vector<WorkloadDef> defs = {
        // Tiny-set, high-IPC kernels whose working sets fit in the LLC:
        // host time goes to per-cycle core, L1D, prefetch, filter and
        // off-chip-predictor work.
        {"sc_compute", SetSize::Tiny, 1, 100'000, 500'000,
         {{"bfs.kron"}, {"pr.kron"}, {"pr.road"}, {"cc.kron"}, {"tc.kron"},
          {"libq_stream"}},
         false},
        // Small-set, DRAM-bound kernels: host time goes to L2/LLC/DRAM
        // stepping and idle-skip bookkeeping; graph generation makes
        // set-up and memory large.
        {"sc_dram", SetSize::Small, 1, 15'000, 75'000,
         {{"mcf_pchase"}, {"xalan_hash"}, {"deepsjeng_tt"}, {"roms_spmv"},
          {"bfs.urand"}, {"sssp.road"}},
         false},
        // 4-core mixes (SPEC heterogeneous, GAP heterogeneous, one
        // homogeneous) replayed from .tlt files: shared LLC/DRAM
        // contention and four streaming trace readers. The SPEC mix's
        // points cost ~10x the others'; listed first, they are submitted
        // first, so the cheap points fill in behind them instead of one
        // long point finishing the sweep alone.
        {"mc_mix", SetSize::Tiny, 4, 3'000, 15'000,
         {{"mcf_pchase", "libq_stream", "libq_stream", "libq_stream"},
          {"bfs.road", "bc.road", "cc.road", "sssp.road"},
          {"cc.kron", "cc.kron", "cc.kron", "cc.kron"}},
         true},
    };
    return defs;
}

const WorkloadDef &
findWorkload(const std::string &name)
{
    std::string names;
    for (const WorkloadDef &d : workloadDefs()) {
        if (d.name == name)
            return d;
        names += (names.empty() ? "" : ", ") + d.name;
    }
    throw std::runtime_error("unknown workload '" + name
                             + "'; valid names: " + names);
}

namespace
{

std::string
joined(const std::vector<std::string> &parts)
{
    std::string out;
    for (const std::string &p : parts)
        out += (out.empty() ? "" : "+") + p;
    return out;
}

/** The input graph a GAP workload name ("bfs.kron") runs on. */
std::optional<workloads::GraphKind>
graphOf(const std::string &name)
{
    const auto dot = name.find('.');
    if (dot == std::string::npos)
        return std::nullopt;
    for (workloads::GraphKind k : workloads::kAllGraphKinds) {
        if (name.compare(dot + 1, std::string::npos, toString(k)) == 0)
            return k;
    }
    return std::nullopt;
}

/** Time the graph builds on their own, so recording times exclude them.
 *  42 is the graph seed the workload registry builds every input graph
 *  with; a different seed would build (and cache) another graph. */
void
timeGraphBuilds(const WorkloadDef &def, SetupTimes &times)
{
    const workloads::ScaleParams sp = workloads::scaleParams(def.set);
    std::set<workloads::GraphKind> kinds;
    for (const auto &point : def.points) {
        for (const std::string &name : point) {
            if (auto k = graphOf(name))
                kinds.insert(*k);
        }
    }
    const Clock::time_point start = Clock::now();
    for (workloads::GraphKind k : kinds)
        workloads::GraphCache::get(k, sp.graph_scale, sp.graph_degree, 42);
    times.graph_build_s = secondsSince(start);
}

/** Stream @p n records of @p spec's recording into a .tlt file. */
void
writeTrace(const workloads::WorkloadSpec &spec, InstrCount n,
           std::uint64_t seed, const std::string &path)
{
    tracefile::TraceFileWriter::Options wopt;
    wopt.name = spec.name;
    wopt.suite = spec.suite == workloads::Suite::Gap ? 1 : 0;
    tracefile::TraceFileWriter writer(path, wopt);
    forEachRecord(spec, n, seed,
                  [&writer](const TraceInstr &t) { writer.append(t); });
    writer.finish();
}

} // namespace

Prepared
prepare(const WorkloadDef &def, const Options &opt, const std::string &dir,
        SetupTimes *times)
{
    Prepared prep;
    prep.seed = opt.seed;

    InstrCount warmup = def.warmup_instrs;
    InstrCount sim = def.sim_instrs;
    std::vector<std::vector<std::string>> points = def.points;
    if (opt.quick) {
        warmup /= 20;
        sim /= 20;
        points.resize(std::min<std::size_t>(points.size(), 2));
    }
    prep.trace_instrs = warmup + sim;

    if (times != nullptr)
        timeGraphBuilds(def, *times);

    // Resolve each distinct slot name once, in first-use order.
    const auto all = workloads::singleCoreWorkloads(def.set);
    std::vector<std::string> names;
    for (const auto &point : points) {
        for (const std::string &n : point) {
            if (std::find(names.begin(), names.end(), n) == names.end())
                names.push_back(n);
        }
    }
    for (const std::string &n : names) {
        auto it = std::find_if(all.begin(), all.end(),
                               [&](const auto &w) { return w.name == n; });
        if (it == all.end())
            throw std::runtime_error("workload " + def.name
                                     + " names unknown kernel '" + n + "'");
        prep.kernels.push_back(*it);
    }

    // Record: the first traceSource() call for a (kernel, length, seed)
    // records the trace; later calls stream the same recording.
    for (const auto &k : prep.kernels) {
        const Clock::time_point start = Clock::now();
        experiment::traceSource(k, prep.trace_instrs, prep.seed);
        if (times != nullptr) {
            times->record_s += secondsSince(start);
            times->recorded_instrs += prep.trace_instrs;
        }
    }

    if (def.replay_files) {
        for (const auto &k : prep.kernels) {
            const std::string path = dir + "/" + k.name + ".tlt";
            Clock::time_point start = Clock::now();
            writeTrace(k, prep.trace_instrs, prep.seed, path);
            if (times != nullptr) {
                times->write_s += secondsSince(start);
                times->written_records += prep.trace_instrs;
            }
            start = Clock::now();
            prep.specs.push_back(workloads::fileTraceWorkload(path));
            if (times != nullptr)
                times->verify_s += secondsSince(start);
        }
    } else {
        prep.specs = prep.kernels;
    }

    for (const auto &point : points) {
        workloads::Mix mix;
        mix.name = joined(point);
        mix.suite = prep.specs.front().suite;
        mix.homogeneous = std::all_of(point.begin(), point.end(),
                                      [&](const auto &n) {
                                          return n == point.front();
                                      });
        std::vector<std::string> point_names;
        for (const std::string &n : point) {
            const auto idx = static_cast<int>(
                std::find(names.begin(), names.end(), n) - names.begin());
            mix.workload_index.push_back(idx);
            point_names.push_back(prep.specs[static_cast<std::size_t>(idx)]
                                      .pointName());
        }
        mix.point_name = joined(point_names);
        prep.mixes.push_back(std::move(mix));
    }

    std::vector<SchemeConfig> schemes = {SchemeConfig::fromName("baseline")};
    for (const SchemeConfig &s : SchemeConfig::paperSchemes())
        schemes.push_back(s);
    for (const SchemeConfig &s : schemes) {
        SystemConfig cfg = SystemConfig::cascadeLake(def.cores);
        cfg.warmup_instrs = warmup;
        cfg.sim_instrs = sim;
        cfg.scheme = s;
        if (s.name == "tlp")
            prep.tlp_index = prep.grid.size();
        prep.grid.push_back(cfg);
    }
    if (prep.tlp_index == 0)
        throw std::runtime_error("the paper schemes include no 'tlp'");
    return prep;
}

std::string
Prepared::key(std::size_t p) const
{
    const workloads::Mix &mix = mixOf(p);
    const SystemConfig &cfg = cfgOf(p);
    const std::string point = mix.cores() == 1
        ? experiment::singlePointKey(
              specs[static_cast<std::size_t>(mix.workload_index[0])], cfg)
        : experiment::mixPointKey(mix, cfg);
    return "seed=" + std::to_string(seed) + "|" + point;
}

std::string
Prepared::label(std::size_t p) const
{
    return mixOf(p).name + "|" + cfgOf(p).scheme.name;
}

std::vector<std::shared_ptr<TraceSource>>
Prepared::sources(std::size_t p) const
{
    std::vector<std::shared_ptr<TraceSource>> out;
    for (int idx : mixOf(p).workload_index) {
        out.push_back(experiment::traceSource(
            specs[static_cast<std::size_t>(idx)], trace_instrs, seed));
    }
    return out;
}

double
Prepared::nominalInstrs() const
{
    double cores = 0;
    for (const auto &m : mixes)
        cores += m.cores();
    return static_cast<double>(trace_instrs) * cores
        * static_cast<double>(grid.size());
}

std::string
checkPoint(const SimResult &r, const SystemConfig &cfg)
{
    if (r.hit_cycle_cap)
        return "hit the cycle cap";
    if (r.instrs.size() != cfg.num_cores || r.ipc.size() != cfg.num_cores)
        return "reports " + std::to_string(r.instrs.size()) + " cores, not "
            + std::to_string(cfg.num_cores);
    for (unsigned c = 0; c < cfg.num_cores; ++c) {
        if (r.instrs[c] < cfg.sim_instrs) {
            return "core " + std::to_string(c) + " measured "
                + std::to_string(r.instrs[c]) + " < "
                + std::to_string(cfg.sim_instrs) + " instructions";
        }
        if (!(r.ipc[c] > 0.0 && r.ipc[c] <= cfg.core.retire_width)) {
            return "core " + std::to_string(c) + " IPC "
                + std::to_string(r.ipc[c]) + " outside (0, retire width "
                + std::to_string(cfg.core.retire_width) + "]";
        }
    }
    const std::uint64_t tx = r.stat("dram.transactions");
    const std::uint64_t rw = r.stat("dram.reads") + r.stat("dram.writes");
    if (tx != rw) {
        return "dram.transactions " + std::to_string(tx)
            + " != dram.reads + dram.writes " + std::to_string(rw);
    }
    return "";
}

bool
sameResult(const SimResult &a, const SimResult &b)
{
    return a.stats == b.stats && a.instrs == b.instrs && a.ipc == b.ipc
        && a.window_cycles == b.window_cycles
        && a.warmup_end_cycle == b.warmup_end_cycle
        && a.hit_cycle_cap == b.hit_cycle_cap;
}

std::string
digest(const Prepared &prep, const Sweep &sweep)
{
    std::string all;
    for (std::size_t p = 0; p < prep.points(); ++p) {
        all += prep.key(p) + "\n";
        if (!sweep.results[p])
            continue;
        all += experiment::simResultToConfig(*sweep.results[p]).serialize();
    }
    return store::fingerprintHex(all);
}

double
tlpIpcRatio(const Prepared &prep, const Sweep &sweep)
{
    const std::size_t n = prep.grid.size();
    double log_sum = 0.0;
    std::size_t count = 0;
    for (std::size_t m = 0; m < prep.mixes.size(); ++m) {
        const auto &base = sweep.results[m * n];
        const auto &tlp = sweep.results[m * n + prep.tlp_index];
        if (!base || !tlp)
            continue;
        log_sum += std::log(tlp->ipcTotal() / base->ipcTotal());
        ++count;
    }
    return count == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(count));
}

DramTx
tlpDramTx(const Prepared &prep, const Sweep &sweep)
{
    const std::size_t n = prep.grid.size();
    DramTx tx;
    for (std::size_t m = 0; m < prep.mixes.size(); ++m) {
        const auto &base = sweep.results[m * n];
        const auto &tlp = sweep.results[m * n + prep.tlp_index];
        if (!base || !tlp)
            continue;
        tx.base += static_cast<double>(base->dramTransactions());
        tx.tlp += static_cast<double>(tlp->dramTransactions());
    }
    return tx;
}

double
peakRssMib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

Json &
Json::field(const std::string &key, const std::string &value)
{
    body_ += (body_.empty() ? "" : ", ") + jsonQuote(key) + ": " + value;
    return *this;
}

Json &
Json::num(const std::string &key, double v)
{
    if (!std::isfinite(v))
        return field(key, "null");
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return field(key, buf);
}

Json &
Json::integer(const std::string &key, std::uint64_t v)
{
    return field(key, std::to_string(v));
}

Json &
Json::str(const std::string &key, const std::string &v)
{
    return field(key, jsonQuote(v));
}

Json &
Json::raw(const std::string &key, const std::string &json)
{
    return field(key, json);
}

Json &
Json::strings(const std::string &key, const std::vector<std::string> &v)
{
    std::string arr = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        arr += (i ? ", " : "") + jsonQuote(v[i]);
    return field(key, arr + "]");
}

} // namespace perfbench
