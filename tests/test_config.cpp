/**
 * The declarative configuration surface: Config parsing/serialization,
 * SystemConfig::fromConfig/toConfig round trips for every shipped scheme
 * preset, the configs/ preset files, error paths with actionable
 * messages, and CLI-path vs bench-path design-point equivalence.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "sim/runner.hh"
#include "sim/system_config.hh"
#include "workloads/workload.hh"

using namespace tlpsim;

// --- Config basics ----------------------------------------------------------

TEST(Config, ParseAndTypedGetters)
{
    Config c = Config::parse("a = 1\n"
                             "b.c = 2.5   # trailing comment\n"
                             "\n"
                             "# full-line comment\n"
                             "d = true\n"
                             "e = hello\n");
    EXPECT_EQ(c.getInt("a", 0), 1);
    EXPECT_DOUBLE_EQ(c.getDouble("b.c", 0.0), 2.5);
    EXPECT_TRUE(c.getBool("d", false));
    EXPECT_EQ(c.getString("e"), "hello");
    EXPECT_EQ(c.getInt("missing", 42), 42);
    EXPECT_FALSE(c.has("missing"));
}

TEST(Config, SerializeRoundTrip)
{
    Config c;
    c.set("x.y", 7);
    c.set("x.z", true);
    c.set("w", 12.8);
    c.set("s", "spp");
    EXPECT_EQ(Config::parse(c.serialize()), c);
}

TEST(Config, MergeLaterWins)
{
    Config base = Config::parse("a = 1\nb = 2\n");
    base.merge(Config::parseAssignments("b=3, c=4"));
    EXPECT_EQ(base.getInt("a", 0), 1);
    EXPECT_EQ(base.getInt("b", 0), 3);
    EXPECT_EQ(base.getInt("c", 0), 4);
}

TEST(Config, SubStripsPrefix)
{
    Config c = Config::parse("scheme.name = tlp\n"
                             "scheme.offchip.tau_high = 9\ncores = 1\n");
    Config s = c.sub("scheme");
    EXPECT_EQ(s.getString("name"), "tlp");
    EXPECT_EQ(s.getInt("offchip.tau_high", 0), 9);
    EXPECT_FALSE(s.has("cores"));
}

TEST(Config, ListValuedKeys)
{
    // Config-file style (commas), assignment style ('+', where ','
    // already separates assignments), and whitespace all split.
    Config c = Config::parse("mix.a = bfs.kron, mcf_pchase\n"
                             "mix.b = bfs.kron+mcf_pchase\n"
                             "mix.c = bfs.kron mcf_pchase\n");
    std::vector<std::string> want{"bfs.kron", "mcf_pchase"};
    EXPECT_EQ(c.getStringList("mix.a"), want);
    EXPECT_EQ(c.getStringList("mix.b"), want);
    EXPECT_EQ(c.getStringList("mix.c"), want);
    EXPECT_EQ(c.getStringList("missing", {"x"}),
              std::vector<std::string>{"x"});

    // set(vector) round-trips through serialize/parse.
    Config d;
    d.set("workload.mix", want);
    EXPECT_EQ(Config::parse(d.serialize()).getStringList("workload.mix"),
              want);

    // The '+'-separated form survives the --set assignment syntax.
    Config e = Config::parseAssignments(
        "workload.mix=bfs.kron+mcf_pchase, cores=2");
    EXPECT_EQ(e.getStringList("workload.mix"), want);
    EXPECT_EQ(e.getInt("cores", 0), 2);
}

TEST(Config, ParseErrorsNameTheLine)
{
    try {
        Config::parse("a = 1\nwhat is this\n", "bad.conf");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("bad.conf:2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Config, BadValueErrorsNameKeyAndValue)
{
    Config c = Config::parse("cores = banana\n");
    try {
        c.getUnsigned("cores", 1);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("cores"), std::string::npos) << msg;
        EXPECT_NE(msg.find("banana"), std::string::npos) << msg;
    }
}

// --- scheme presets ---------------------------------------------------------

TEST(SchemeConfig, ElevenShippedPresets)
{
    EXPECT_EQ(SchemeConfig::names().size(), 11u);
}

TEST(SchemeConfig, SchemeListsAreNamedPresets)
{
    auto names = [](const std::vector<SchemeConfig> &schemes) {
        std::vector<std::string> out;
        for (const SchemeConfig &s : schemes) {
            EXPECT_EQ(s, SchemeConfig::fromName(s.name)) << s.name;
            out.push_back(s.name);
        }
        return out;
    };
    EXPECT_EQ(names(SchemeConfig::paperSchemes()),
              (std::vector<std::string>{"ppf", "hermes", "hermes+ppf",
                                        "tlp"}));
    EXPECT_EQ(names(SchemeConfig::ablationSchemes()),
              (std::vector<std::string>{"flp", "slp", "tsp", "delayed_tsp",
                                        "selective_tsp", "tlp"}));
}

TEST(SchemeConfig, UnknownNameListsValidNames)
{
    try {
        SchemeConfig::fromName("nope");
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("nope"), std::string::npos) << msg;
        EXPECT_NE(msg.find("tlp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("hermes+ppf"), std::string::npos) << msg;
    }
}

// The satellite requirement: parse -> SystemConfig -> toConfig -> parse is
// the identity for every shipped scheme.
TEST(SystemConfig, RoundTripsEveryScheme)
{
    for (const std::string &name : SchemeConfig::names()) {
        SystemConfig cfg = SystemConfig::cascadeLake(1);
        cfg.scheme = SchemeConfig::fromName(name);

        Config dumped = cfg.toConfig();
        Config reparsed = Config::parse(dumped.serialize(), name);
        SystemConfig rebuilt = SystemConfig::fromConfig(reparsed);

        EXPECT_EQ(rebuilt.toConfig(), dumped) << name;
        EXPECT_EQ(rebuilt.scheme, cfg.scheme) << name;
        EXPECT_EQ(rebuilt.l1_prefetcher, cfg.l1_prefetcher) << name;
    }
}

TEST(SystemConfig, SchemeShorthandSelectsPreset)
{
    Config c = Config::parse("scheme = tlp\n");
    EXPECT_EQ(SystemConfig::fromConfig(c).scheme,
              SchemeConfig::fromName("tlp"));

    // Explicit scheme.* keys override the preset.
    Config c2
        = Config::parse("scheme = tlp\nscheme.offchip.tau_high = 11\n");
    SystemConfig cfg = SystemConfig::fromConfig(c2);
    EXPECT_EQ(cfg.scheme.offchipBuildConfig().getString("tau_high"), "11");
    EXPECT_EQ(cfg.scheme.offchip, "flp");
}

TEST(SystemConfig, MultiCoreDefaultsFollowCores)
{
    SystemConfig c = SystemConfig::fromConfig(Config::parse("cores = 4\n"));
    EXPECT_EQ(c.num_cores, 4u);
    EXPECT_DOUBLE_EQ(c.dram_gbps_per_core, 3.2);
}

// Every configs/*.conf preset file must build the same SchemeConfig as the
// in-code preset of the same name, so the shipped files can never rot.
TEST(SystemConfig, ShippedPresetFilesMatchCodePresets)
{
    for (const std::string &name : SchemeConfig::names()) {
        std::string path
            = std::string(TLPSIM_CONFIGS_DIR) + "/" + name + ".conf";
        SystemConfig cfg = SystemConfig::fromConfig(Config::parseFile(path));
        EXPECT_EQ(cfg.scheme, SchemeConfig::fromName(name)) << path;
    }
}

namespace
{

/** The effectiveConfig() lines of every component subtree, headed by
 *  "== name": what each deployed component is built with. */
std::string
componentLines(const std::string &name, const SystemConfig &cfg)
{
    std::string out = "== " + name + "\n";
    Config eff = cfg.effectiveConfig();
    for (const std::string &k : eff.keys()) {
        for (const char *slot : {"scheme.offchip.", "scheme.l1_filter.",
                                 "scheme.l2_filter.", "l1d.prefetcher.",
                                 "l2.prefetcher."}) {
            if (k.starts_with(slot)) {
                out += k + " = " + eff.getString(k) + "\n";
                break;
            }
        }
    }
    return out;
}

} // namespace

// What every preset builds — each component's full knob set, from the
// code preset and from its configs/ file — is pinned byte for byte in
// tests/golden/preset_components.txt. A preset or component default that
// changes what a paper scheme simulates fails here; on purpose, paste the
// printed rendering into the golden file and explain the diff.
TEST(SystemConfig, PresetComponentConfigsArePinned)
{
    std::ifstream in(std::string(TLPSIM_GOLDEN_DIR)
                     + "/preset_components.txt");
    ASSERT_TRUE(in) << "cannot read " << TLPSIM_GOLDEN_DIR;
    std::stringstream golden;
    golden << in.rdbuf();

    std::string from_code;
    std::string from_file;
    for (const std::string &name : SchemeConfig::names()) {
        SystemConfig cfg = SystemConfig::cascadeLake(1);
        cfg.scheme = SchemeConfig::fromName(name);
        from_code += componentLines(name, cfg);
        from_file += componentLines(
            name, SystemConfig::fromConfig(Config::parseFile(
                      std::string(TLPSIM_CONFIGS_DIR) + "/" + name
                      + ".conf")));
    }
    EXPECT_EQ(from_code, golden.str());
    EXPECT_EQ(from_file, golden.str());
}

// Per-component subtrees: scheme.offchip.* / scheme.l1_filter.* (and
// l1d.prefetcher.* / l2.prefetcher.*) keys must round-trip, fingerprint
// distinctly, and reach the registry builders.
TEST(SystemConfig, ComponentSubtreesRoundTripAndFingerprint)
{
    Config c = Config::parse("scheme = tlp\n"
                             "scheme.offchip.table_scale_shift = 1\n"
                             "scheme.l1_filter.probation_period = 7\n"
                             "l1d.prefetcher.region_lines = 16\n");
    SystemConfig cfg = SystemConfig::fromConfig(c);
    EXPECT_EQ(cfg.scheme.offchip_params.getString("table_scale_shift"),
              "1");
    EXPECT_EQ(cfg.scheme.l1_filter_params.getString("probation_period"),
              "7");
    EXPECT_EQ(cfg.l1_pf_params.getString("region_lines"), "16");

    // toConfig emits the subtree keys, so fromConfig(toConfig()) is the
    // identity and the Runner fingerprint separates the design points.
    Config dumped = cfg.toConfig();
    EXPECT_EQ(dumped.getString("scheme.l1_filter.probation_period"), "7");
    SystemConfig rebuilt
        = SystemConfig::fromConfig(Config::parse(dumped.serialize()));
    EXPECT_EQ(rebuilt.toConfig(), dumped);
    EXPECT_EQ(rebuilt.scheme, cfg.scheme);

    SystemConfig plain
        = SystemConfig::fromConfig(Config::parse("scheme = tlp\n"));
    EXPECT_NE(experiment::configKey(cfg), experiment::configKey(plain));
}

TEST(SystemConfig, ComponentSubtreesReachTheBuilders)
{
    // A subtree knob must change simulated behaviour: SLP drops a
    // prefetch when the perceptron sum reaches tau_pref ("predicted
    // off-chip"), so an always-reached threshold drops (nearly) all.
    Config base = Config::parse("scheme = tlp\n"
                                "warmup_instrs = 2000\n"
                                "sim_instrs = 8000\n");
    Config strict = base;
    strict.set("scheme.l1_filter.tau_pref", -120);

    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    SimResult loose
        = experiment::runSingleCore(ws.front(),
                                    SystemConfig::fromConfig(base));
    SimResult tight
        = experiment::runSingleCore(ws.front(),
                                    SystemConfig::fromConfig(strict));
    EXPECT_GT(tight.stat("cpu0.l1d.pf_filtered"),
              loose.stat("cpu0.l1d.pf_filtered"));
}

// --- error paths ------------------------------------------------------------

TEST(SystemConfig, ZeroCoresIsRejected)
{
    try {
        SystemConfig::fromConfig(Config::parse("cores = 0\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("cores = 0"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SystemConfig, UnknownKeyListsNearbyKeys)
{
    try {
        SystemConfig::fromConfig(Config::parse("scheme.bogus = 1\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("scheme.bogus"), std::string::npos) << msg;
        EXPECT_NE(msg.find("scheme.name"), std::string::npos) << msg;
    }
}

TEST(SystemConfig, UnknownTopLevelKeyListsValidKeys)
{
    try {
        SystemConfig::fromConfig(Config::parse("bogus_key = 1\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("bogus_key"), std::string::npos) << msg;
        EXPECT_NE(msg.find("valid keys"), std::string::npos) << msg;
        EXPECT_NE(msg.find("warmup_instrs"), std::string::npos) << msg;
    }
}

TEST(SystemConfig, UnknownPrefetcherListsRegistryNames)
{
    try {
        SystemConfig::fromConfig(Config::parse("l1d.prefetcher = fancy\n"));
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("fancy"), std::string::npos) << msg;
        EXPECT_NE(msg.find("ipcp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("berti"), std::string::npos) << msg;
        EXPECT_NE(msg.find("next_line"), std::string::npos) << msg;
    }
}

TEST(SystemConfig, UnknownOffchipPredictorListsRegistryNames)
{
    Config c = Config::parse("scheme.offchip = athena\n");
    try {
        SystemConfig::fromConfig(c);
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("athena"), std::string::npos) << msg;
        EXPECT_NE(msg.find("flp"), std::string::npos) << msg;
        EXPECT_NE(msg.find("hermes"), std::string::npos) << msg;
    }
}

// --- CLI path == bench path -------------------------------------------------

// The acceptance criterion: a design point built from a shipped preset
// file (the tlpsim CLI path) is the *same* design point as one built in
// code the way the benches do it — byte-identical config fingerprint, so
// the Runner memoizes them as one simulation and every table row matches.
TEST(SystemConfig, PresetFileDesignPointMatchesBenchPath)
{
    Config file_cfg = Config::parseFile(std::string(TLPSIM_CONFIGS_DIR)
                                        + "/tlp.conf");
    file_cfg.merge(
        Config::parseAssignments("warmup_instrs=2000, sim_instrs=6000"));
    SystemConfig cli_path = SystemConfig::fromConfig(file_cfg);

    SystemConfig bench_path = SystemConfig::cascadeLake(1);
    bench_path.warmup_instrs = 2'000;
    bench_path.sim_instrs = 6'000;
    bench_path.scheme = SchemeConfig::fromName("tlp");

    EXPECT_EQ(experiment::configKey(cli_path),
              experiment::configKey(bench_path));

    // And the design point actually runs end to end.
    auto ws = workloads::singleCoreWorkloads(workloads::SetSize::Tiny);
    SimResult r = experiment::runSingleCore(ws.front(), cli_path);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_EQ(r.scheme, "tlp");
}
