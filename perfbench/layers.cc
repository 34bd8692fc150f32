/**
 * @file
 * The traced run: per-layer figures for one workload, measured from
 * outside the simulator. It times calls into each layer's public API,
 * reads the simulator's own stat counters and attaches the existing
 * HotloopProfile hook to a second, serial run of every design point.
 */

#include <cstdio>
#include <filesystem>
#include <map>

#include "bench.hh"
#include "common/rng.hh"
#include "core/branch_pred.hh"
#include "offchip/offchip_predictor.hh"
#include "offchip/page_buffer.hh"
#include "prefetch/factory.hh"
#include "sim/experiment.hh"
#include "sim/hotloop_profile.hh"
#include "sim/runner.hh"
#include "store/result_store.hh"
#include "tlb/tlb.hh"

namespace perfbench
{

namespace
{

/** Call @p pass (which makes @p calls_per_pass calls) until at least
 *  @p min_s seconds have passed; return nanoseconds per call. */
template <typename Pass>
double
nsPerCall(std::size_t calls_per_pass, Pass &&pass, double min_s = 0.05)
{
    if (calls_per_pass == 0)
        return 0.0;
    std::size_t calls = 0;
    const Clock::time_point start = Clock::now();
    do {
        pass();
        calls += calls_per_pass;
    } while (secondsSince(start) < min_s);
    return secondsSince(start) * 1e9 / static_cast<double>(calls);
}

/** Nanoseconds per record to read @p n records from each of @p specs
 *  through fresh traceSource() streams. */
double
drainNsPerRecord(const std::vector<workloads::WorkloadSpec> &specs,
                 InstrCount n, std::uint64_t seed)
{
    const Clock::time_point start = Clock::now();
    for (const auto &spec : specs)
        forEachRecord(spec, n, seed, [](const TraceInstr &) {});
    const double records = static_cast<double>(n * specs.size());
    return records == 0.0 ? 0.0 : secondsSince(start) * 1e9 / records;
}

/** The loads and conditional branches of the workload's own traces: the
 *  inputs the per-call micro-timings replay. */
struct Replay
{
    struct Load
    {
        Addr ip;
        Addr vaddr;
    };
    struct Branch
    {
        Addr ip;
        bool taken;
    };
    std::vector<Load> loads;
    std::vector<Branch> branches;
};

Replay
collectReplay(const Prepared &prep)
{
    Replay r;
    for (const auto &k : prep.kernels) {
        forEachRecord(k, prep.trace_instrs, prep.seed,
                      [&r](const TraceInstr &t) {
                          if (t.isLoad())
                              r.loads.push_back({t.ip, t.ld_vaddr});
                          if (t.branch == BranchKind::Conditional)
                              r.branches.push_back({t.ip, t.taken});
                      });
    }
    return r;
}

PrefetchTrigger
trigger(const Replay::Load &l, Cycle now)
{
    PrefetchTrigger t;
    t.vaddr = l.vaddr;
    t.paddr = l.vaddr;
    t.ip = l.ip;
    t.now = now;
    return t;
}

/** Sums of the simulator's stat counters over every checked point. */
class Counts
{
  public:
    explicit Counts(const Sweep &sweep)
    {
        for (const auto &r : sweep.results) {
            if (!r)
                continue;
            instrs_ += static_cast<double>(r->totalInstrs());
            for (const auto &[name, v] : r->stats) {
                // Per-core counters sum across cores: "cpu3.l1d.x" -> "l1d.x".
                std::string key = name;
                if (name.rfind("cpu", 0) == 0) {
                    const auto dot = name.find('.');
                    if (dot != std::string::npos)
                        key = name.substr(dot + 1);
                }
                sums_[key] += static_cast<double>(v);
            }
        }
    }

    double
    operator[](const std::string &name) const
    {
        auto it = sums_.find(name);
        return it == sums_.end() ? 0.0 : it->second;
    }

    /** Per kilo measured instruction. */
    double pki(double count) const
    {
        return instrs_ == 0.0 ? 0.0 : count * 1e3 / instrs_;
    }

    /** Every lookup a cache level served: demand, writeback, translation
     *  and prefetch, hits and misses. */
    double
    accesses(const std::string &level, const char *outcome = nullptr) const
    {
        double total = 0.0;
        for (const char *kind : {"load", "rfo", "wb", "trans", "pf"}) {
            for (const char *o : {"hit", "miss"}) {
                if (outcome == nullptr || std::string(outcome) == o)
                    total += (*this)[level + "." + kind + "_" + o];
            }
        }
        return total;
    }

  private:
    double instrs_ = 0.0;
    std::map<std::string, double> sums_;
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Deterministic off-chip labels, each true with probability @p rate. */
std::vector<std::uint8_t>
offchipLabels(std::size_t n, double rate, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::uint8_t> labels(n);
    for (auto &l : labels)
        l = rng.chance(rate);
    return labels;
}

} // namespace

int
runLayersMode(const Options &opt)
{
    const WorkloadDef &def = findWorkload(opt.workload);
    std::filesystem::create_directories(opt.dir);
    std::map<std::string, double> m;

    // --- workloads / trace / tracefile: set-up, timed piece by piece.
    SetupTimes times;
    const Prepared prep = prepare(def, opt, opt.dir, &times);
    m["workloads.graph_build_s"] = times.graph_build_s;
    m["workloads.record_ns_per_instr"]
        = ratio(times.record_s * 1e9,
                static_cast<double>(times.recorded_instrs));
    m["trace.read_ns_per_record"]
        = drainNsPerRecord(prep.kernels, prep.trace_instrs, prep.seed);
    m["tracefile.write_ns_per_record"]
        = ratio(times.write_s * 1e9,
                static_cast<double>(times.written_records));
    m["tracefile.verify_ms"] = times.verify_s * 1e3;
    m["tracefile.read_ns_per_record"] = def.replay_files
        ? drainNsPerRecord(prep.specs, prep.trace_instrs, prep.seed)
        : 0.0;

    // --- the untraced sweep through the Runner, as the end-to-end run.
    Sweep sweep = runSweep(prep, opt, opt.dir + "/store");
    double busy_s = 0.0;
    for (double s : sweep.point_s)
        busy_s += s;
    m["sim.runner_busy_ratio"]
        = ratio(busy_s, static_cast<double>(workers()) * sweep.wall_s);

    // --- every point again, serially: untraced, then with the profile
    // attached. The profile claims to be observational, so a traced
    // result that differs from the sweep's is a failed point.
    HotloopProfile prof;
    double build_s = 0.0;
    double untraced_s = 0.0;
    double traced_s = 0.0;
    double cycles = 0.0;
    double skipped = 0.0;
    for (std::size_t p = 0; p < prep.points(); ++p) {
        Clock::time_point start = Clock::now();
        Simulator plain(prep.cfgOf(p), prep.sources(p));
        build_s += secondsSince(start);
        start = Clock::now();
        const SimResult untraced = plain.run();
        untraced_s += secondsSince(start);
        cycles += static_cast<double>(plain.cycle());
        skipped += static_cast<double>(plain.idleSkippedCycles());

        Simulator traced_sim(prep.cfgOf(p), prep.sources(p));
        traced_sim.setProfile(&prof);
        start = Clock::now();
        const SimResult traced = traced_sim.run();
        traced_s += secondsSince(start);

        const bool same = sweep.results[p]
            && sameResult(*sweep.results[p], traced)
            && sameResult(untraced, traced);
        if (!same && sweep.errors[p].empty()) {
            sweep.errors[p] = prep.label(p)
                + ": traced run differs from the untraced run";
            ++sweep.failed;
        }
    }
    const double points = static_cast<double>(prep.points());
    m["sim.build_ms"] = build_s * 1e3 / points;
    m["sim.idle_skip_ratio"] = ratio(skipped, cycles);
    m["sim.host_ns_per_stepped_cycle"]
        = ratio(untraced_s * 1e9, cycles - skipped);
    m["sim.profile_overhead_pct"]
        = ratio(traced_s - untraced_s, untraced_s) * 100.0;
    const double ticks = static_cast<double>(prof.total());
    auto share = [&](HotloopProfile::Subsystem s) {
        return ratio(static_cast<double>(prof.ticks[s]), ticks);
    };
    m["sim.next_event_share"] = share(HotloopProfile::kNextEvent);
    m["core.share"] = share(HotloopProfile::kCore);
    m["cache.l1i_share"] = share(HotloopProfile::kL1i);
    m["cache.l1d_share"] = share(HotloopProfile::kL1d);
    m["cache.l2_share"] = share(HotloopProfile::kL2);
    m["cache.llc_share"] = share(HotloopProfile::kLlc);
    m["mem.share"] = share(HotloopProfile::kDram);

    m["sim.config_key_us"] = nsPerCall(prep.grid.size(), [&] {
        for (const SystemConfig &cfg : prep.grid)
            (void)experiment::configKey(cfg);
    }) / 1e3;

    // --- counts from the sweep's own stat counters.
    const Counts c(sweep);
    m["core.branches_pki"] = c.pki(c["branches"]);
    m["cache.l1d_accesses_pki"] = c.pki(c.accesses("l1d"));
    m["cache.l2_accesses_pki"] = c.pki(c.accesses("l2c"));
    m["cache.llc_accesses_pki"] = c.pki(c.accesses("llc"));
    m["cache.llc_miss_ratio"]
        = ratio(c.accesses("llc", "miss"), c.accesses("llc"));
    m["tlb.dtlb_miss_ratio"]
        = ratio(c["dtlb.miss"], c["dtlb.hit"] + c["dtlb.miss"]);
    const double predictions = c["flp.pred_offchip"] + c["flp.pred_onchip"];
    m["offchip.predictions_pki"] = c.pki(predictions);
    m["offchip.accuracy"]
        = ratio(c["flp.train_correct"],
                c["flp.train_correct"] + c["flp.train_wrong"]);
    const double slp_decisions = c["slp.allowed"] + c["slp.dropped"];
    const double ppf_decisions
        = c["ppf.accepted_l2"] + c["ppf.demoted_llc"] + c["ppf.rejected"];
    m["filter.decisions_pki"] = c.pki(slp_decisions + ppf_decisions);
    m["filter.drop_ratio"] = ratio(c["slp.dropped"] + c["ppf.rejected"],
                                   slp_decisions + ppf_decisions);
    m["prefetch.candidates_pki"]
        = c.pki(c["l1d.pf_issued"] + c["l2c.pf_issued"]);
    m["prefetch.l1d_accuracy"]
        = ratio(c["l1d.pf_useful"], c["l1d.pf_useful"] + c["l1d.pf_useless"]);
    m["mem.dram_tx_pki"] = c.pki(c["dram.transactions"]);
    m["mem.row_hit_ratio"]
        = ratio(c["dram.row_hit"], c["dram.row_hit"] + c["dram.row_miss"]);
    m["mem.spec_wasted_ratio"]
        = ratio(c["dram.spec_wasted"], c["dram.spec_issued"]);

    // --- per-call costs: the workload's own loads and branches replayed
    // through each layer's public entry point.
    const Replay replay = collectReplay(prep);
    const auto &loads = replay.loads;
    StatGroup stats;
    {
        BranchPredictor bp(&stats);
        m["core.bpred_ns_per_call"] = nsPerCall(replay.branches.size(), [&] {
            for (const auto &b : replay.branches)
                (void)bp.predictAndTrain(b.ip, b.taken);
        });
    }
    {
        const SystemConfig &cfg = prep.grid.front();
        Tlb dtlb(cfg.dtlb, &stats);
        Tlb stlb(cfg.stlb, &stats);
        TranslationStack tlbs(&dtlb, &stlb);
        m["tlb.lookup_ns_per_call"] = nsPerCall(loads.size(), [&] {
            for (const auto &l : loads) {
                if (tlbs.lookup(l.vaddr).needs_walk)
                    tlbs.fill(l.vaddr);
            }
        });
    }
    const SchemeConfig &tlp = prep.grid[prep.tlp_index].scheme;
    {
        Config oc = tlp.offchipBuildConfig();
        oc.set("name", "bench.flp");
        auto flp = offchipRegistry().build(tlp.offchip, oc, &stats);
        const double rate = ratio(c["llc.load_miss"], c["loads"]);
        const auto labels = offchipLabels(loads.size(), rate, opt.seed);
        m["offchip.predict_train_ns_per_call"]
            = nsPerCall(loads.size(), [&] {
                  for (std::size_t i = 0; i < loads.size(); ++i) {
                      const auto d = flp->predictLoad(loads[i].ip,
                                                      loads[i].vaddr);
                      flp->train(d.meta, labels[i] != 0);
                  }
              });
        PageBuffer pb;
        m["offchip.page_buffer_ns_per_call"] = nsPerCall(loads.size(), [&] {
            for (const auto &l : loads)
                (void)pb.firstAccess(l.vaddr);
        });
    }
    // A filter judges the next line after each load as a candidate.
    auto filterNs = [&](const std::string &name, Config fc) {
        fc.set("name", "bench." + name);
        auto filter = filterRegistry().build(name, fc, &stats);
        return nsPerCall(loads.size(), [&] {
            for (std::size_t i = 0; i < loads.size(); ++i) {
                std::uint8_t fill_level = 1;
                PredictionMeta meta;
                const Addr next = loads[i].vaddr + 64;
                (void)filter->allow(trigger(loads[i], i), next, next, 0,
                                    fill_level, meta);
            }
        });
    };
    m["filter.slp_ns_per_call"]
        = filterNs(tlp.l1_filter, tlp.l1FilterBuildConfig());
    const SchemeConfig ppf = SchemeConfig::fromName("ppf");
    m["filter.ppf_ns_per_call"]
        = filterNs(ppf.l2_filter, ppf.l2FilterBuildConfig());
    {
        const SystemConfig &cfg = prep.grid.front();
        auto pf = prefetcherRegistry().build(cfg.l1_prefetcher,
                                             cfg.l1PrefetcherBuildConfig());
        std::vector<PrefetchCandidate> out;
        m["prefetch.l1d_ns_per_access"] = nsPerCall(loads.size(), [&] {
            for (std::size_t i = 0; i < loads.size(); ++i) {
                pf->onAccess(trigger(loads[i], i), out);
                out.clear();
            }
        });
    }
    // Host time the paper's predictors cost, estimated as ns/call x the
    // calls the sweep made, over the serial untraced run's wall time.
    m["offchip.est_host_share"]
        = ratio(m["offchip.predict_train_ns_per_call"] * predictions,
                untraced_s * 1e9);
    m["filter.est_host_share"]
        = ratio(m["filter.slp_ns_per_call"] * slp_decisions
                    + m["filter.ppf_ns_per_call"] * ppf_decisions,
                untraced_s * 1e9);

    // --- store: save and load the run's own rows in a fresh directory.
    {
        store::ResultStore st(opt.dir + "/layer_store");
        std::vector<std::pair<std::string, Config>> rows;
        for (std::size_t p = 0; p < prep.points(); ++p) {
            if (!sweep.results[p])
                continue;
            Config row = experiment::simResultToConfig(*sweep.results[p]);
            row.set(store::kStatusKey, store::kStatusOk);
            rows.emplace_back(prep.key(p), std::move(row));
        }
        m["store.save_us"] = nsPerCall(rows.size(), [&] {
            for (const auto &[key, row] : rows)
                st.save(key, row);
        }) / 1e3;
        std::size_t loaded = 0;
        m["store.load_us"] = nsPerCall(rows.size(), [&] {
            for (const auto &row : rows)
                loaded += st.load(row.first).has_value();
        }) / 1e3;
        if (loaded == 0 && !rows.empty()) {
            sweep.errors.push_back("store: no saved row loaded back");
            ++sweep.failed;
        }
    }

    std::vector<std::string> errors;
    for (const std::string &e : sweep.errors) {
        if (!e.empty())
            errors.push_back(e);
    }
    Json metrics;
    for (const auto &[name, v] : m)
        metrics.num(name, v);
    Json j;
    j.str("workload", def.name)
        .integer("seed", opt.seed)
        .integer("points", prep.points())
        .integer("failed", sweep.failed)
        .strings("errors", errors)
        .str("digest", digest(prep, sweep))
        .raw("metrics", metrics.done())
        .raw("host", hostJson().done());
    std::printf("%s\n", j.done().c_str());
    return 0;
}

} // namespace perfbench
