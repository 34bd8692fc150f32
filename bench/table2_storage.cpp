/**
 * @file
 * Table II: storage overhead of TLP, regenerated from the live component
 * configuration (perceptron tables, page buffers, LQ/MSHR metadata) — and
 * contrasted with PPF's budget for the §II-B comparison.
 */

#include <cstdio>

#include "bench_common.hh"
#include "filter/ppf.hh"

using namespace tlpsim;

namespace
{

int
reproduce()
{
    tlpsim::bench::printBanner("Table II — TLP storage overhead",
                               "Table II (6.98 KB breakdown)");

    StorageBudget tlp = Simulator::tlpStorageBudget();
    std::printf("%s\n", tlp.toTable("Table II: TLP storage").c_str());

    StatGroup scratch("s");
    Ppf ppf({}, &scratch);
    std::printf("%s\n",
                ppf.storage()
                    .toTable("For contrast: PPF storage (paper: ~40 KB)")
                    .c_str());

    std::printf("paper: FLP 3.21 KB + SLP 3.29 KB + LQ metadata 0.42 KB + "
                "MSHR metadata 0.06 KB = 6.98 KB total.\n");
    return 0;
}

} // namespace

int
main()
{
    return tlpsim::bench::guardMain("table2_storage", reproduce);
}
