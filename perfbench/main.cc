/**
 * @file
 * tlpsim_bench: one benchmark process. perfbench/run.py starts one per
 * repetition, so every repetition pays its own set-up (graph build,
 * trace recording, .tlt files) and reports its own peak RSS.
 *
 *   tlpsim_bench sweep  --workload W --seed N --dir D
 *   tlpsim_bench layers --workload W --seed N --dir D
 *   tlpsim_bench list
 *
 * sweep prints one JSON line of end-to-end figures; layers prints one
 * JSON line of per-layer figures from a traced run. --quick shrinks the
 * workload to a self-test scale; --corrupt-point P adds one DRAM
 * transaction to point P's stats so the self-test can see the
 * correctness check catch it.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "tlpsim_bench: %s\nusage: tlpsim_bench sweep|layers "
                 "--workload W --seed N --dir D [--quick] "
                 "[--corrupt-point P]\n       tlpsim_bench list\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseNumber(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0')
        usage(flag + " needs a whole number, got '" + text + "'");
    return v;
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        usage("no mode given");
    Options opt;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = parseNumber(arg, value());
        else if (arg == "--dir")
            opt.dir = value();
        else if (arg == "--quick")
            opt.quick = true;
        else if (arg == "--corrupt-point")
            opt.corrupt_point = static_cast<long>(parseNumber(arg, value()));
        else
            usage("unknown argument '" + arg + "'");
    }
    if (opt.mode != "list" && (opt.workload.empty() || opt.dir.empty()))
        usage("--workload and --dir are required");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    try {
        if (opt.mode == "sweep")
            return runSweepMode(opt);
        if (opt.mode == "layers")
            return runLayersMode(opt);
        if (opt.mode == "list") {
            for (const WorkloadDef &d : workloadDefs())
                std::printf("%s\n", d.name.c_str());
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tlpsim_bench: %s\n", e.what());
        return 1;
    }
    usage("unknown mode '" + opt.mode + "'");
}
