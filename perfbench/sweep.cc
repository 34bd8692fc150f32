#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "bench.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"

namespace perfbench
{

unsigned
workers()
{
    const unsigned threads = std::thread::hardware_concurrency();
    return std::clamp(threads > 1 ? threads - 1 : 1u, 1u, 3u);
}

Sweep
runSweep(const Prepared &prep, const Options &opt,
         const std::string &store_dir)
{
    const std::size_t n = prep.points();
    Sweep sweep;
    sweep.results.resize(n);
    sweep.errors.resize(n);
    sweep.point_s.assign(n, 0.0);

    experiment::StorePolicy policy;
    policy.store = std::make_shared<store::ResultStore>(store_dir);
    const Clock::time_point start = Clock::now();
    {
        experiment::Runner runner(workers(), policy);
        for (std::size_t p = 0; p < n; ++p) {
            // Each job writes only its own point_s slot; outcome() below
            // synchronizes with the job's completion before it is read.
            double *slot = &sweep.point_s[p];
            runner.submit(prep.key(p), [&prep, p, slot] {
                const Clock::time_point t = Clock::now();
                Simulator sim(prep.cfgOf(p), prep.sources(p));
                SimResult r = sim.run();
                *slot = secondsSince(t);
                return r;
            }, prep.label(p));
        }
        for (std::size_t p = 0; p < n; ++p) {
            try {
                const auto out = runner.outcome(prep.key(p));
                if (out.failed)
                    sweep.errors[p] = out.error;
                else
                    sweep.results[p] = *out.result;
            } catch (const std::exception &e) {
                sweep.errors[p] = e.what();
            }
        }
    }
    sweep.wall_s = secondsSince(start);

    for (std::size_t p = 0; p < n; ++p) {
        if (sweep.results[p] && static_cast<long>(p) == opt.corrupt_point)
            sweep.results[p]->stats["dram.transactions"] += 1;
        if (sweep.results[p] && sweep.errors[p].empty())
            sweep.errors[p] = checkPoint(*sweep.results[p], prep.cfgOf(p));
        if (!sweep.errors[p].empty()) {
            ++sweep.failed;
            sweep.errors[p] = prep.label(p) + ": " + sweep.errors[p];
        }
    }
    return sweep;
}

namespace
{

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __VERSION__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

/** The host facts every run records next to its numbers. */
Json
hostJson()
{
    Json j;
    j.str("compiler", compilerName())
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .integer("nproc", std::thread::hardware_concurrency())
        .integer("jobs", workers());
    return j;
}

int
runSweepMode(const Options &opt)
{
    const WorkloadDef &def = findWorkload(opt.workload);
    std::filesystem::create_directories(opt.dir);

    const Clock::time_point start = Clock::now();
    const Prepared prep = prepare(def, opt, opt.dir);
    const double setup_s = secondsSince(start);
    const Sweep sweep = runSweep(prep, opt, opt.dir + "/store");
    const double wall_s = secondsSince(start);
    const DramTx tx = tlpDramTx(prep, sweep);

    std::vector<std::string> errors;
    for (const std::string &e : sweep.errors) {
        if (!e.empty())
            errors.push_back(e);
    }
    Json j;
    j.str("workload", def.name)
        .integer("seed", opt.seed)
        .integer("points", prep.points())
        .integer("failed", sweep.failed)
        .strings("errors", errors)
        .num("wall_s", wall_s)
        .num("setup_s", setup_s)
        .num("nominal_instrs", prep.nominalInstrs())
        .num("sim_kips", prep.nominalInstrs() / wall_s / 1e3)
        .num("peak_rss_mib", peakRssMib())
        .num("tlp_ipc_ratio", tlpIpcRatio(prep, sweep))
        .num("base_dram_tx", tx.base)
        .num("tlp_dram_tx", tx.tlp)
        .str("digest", digest(prep, sweep))
        .raw("host", hostJson().done());
    std::printf("%s\n", j.done().c_str());
    return 0;
}

} // namespace perfbench
