/**
 * @file
 * Figure 6 — "Performance Improvement Breakdown": the SILC-FM feature
 * ladder per workload.  The stack starts from Random static placement,
 * then adds subblock swapping (direct-mapped, no locking/bypass), then
 * locking, then 4-way associativity, then bypassing.
 *
 * Paper shape to check (Section V-A): swapping alone gives the largest
 * jump (geomean 1.55 in the paper); locking adds ~11% (xalancbmk the
 * poster child), associativity ~8% (gcc), bypassing ~8% (milc), for a
 * total of 1.82.
 */

#include <cstdio>
#include <vector>

#include "sim/parallel.hh"
#include "sim/result_writer.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

namespace {

struct Variant
{
    const char *label;
    uint32_t assoc;
    bool locking;
    bool bypass;
};

constexpr Variant kVariants[] = {
    {"swap", 1, false, false},
    {"+lock", 1, true, false},
    {"+assoc", 4, true, false},
    {"+bypass", 4, true, true},
};

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    ParallelRunner runner(opts);
    runner.setJsonPath(args.json());

    std::printf("=== Figure 6: SILC-FM breakdown "
                "(speedup over no-NM baseline) ===\n\n");
    std::vector<std::string> columns = {"rand"};
    for (const Variant &v : kVariants)
        columns.push_back(v.label);

    // Column 0 is Random static placement, then the SILC-FM ladder.
    const std::vector<double> means =
        Grid(runner, trace::profileNames(), columns,
             [&](const std::string &workload, size_t col) {
                 if (col == 0)
                     return makeConfig(workload, "rand", opts);
                 const Variant &v = kVariants[col - 1];
                 SystemConfig cfg = makeConfig(workload, "silcfm", opts);
                 cfg.silc.associativity = v.assoc;
                 cfg.silc.enable_locking = v.locking;
                 cfg.silc.enable_bypass = v.bypass;
                 return cfg;
             })
            .print();

    std::printf("\nfeature deltas (geomean): swap %+.1f%% over rand, "
                "lock %+.1f%%, assoc %+.1f%%, bypass %+.1f%%\n",
                100.0 * (means[1] / means[0] - 1.0),
                100.0 * (means[2] / means[1] - 1.0),
                100.0 * (means[3] / means[2] - 1.0),
                100.0 * (means[4] / means[3] - 1.0));
    std::printf("(paper: +55%% swap over static, +11%% lock, +8%% "
                "assoc, +8%% bypass)\n");
    runner.printFooter();
    return 0;
}
