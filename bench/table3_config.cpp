/**
 * @file
 * Table III: the simulated system configuration, printed from the live
 * SystemConfig defaults (single-core and 4-core variants).
 */

#include <cstdio>

#include "bench_common.hh"

using namespace tlpsim;

namespace
{

int
reproduce()
{
    tlpsim::bench::printBanner("Table III — system configuration",
                               "Table III (Cascade Lake-like baseline)");

    std::printf("%s\n", SystemConfig::cascadeLake(1).description().c_str());
    std::printf("%s\n", SystemConfig::cascadeLake(4).description().c_str());
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("table3_config", reproduce);
}
