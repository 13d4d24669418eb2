/**
 * @file
 * Section III-C ablation — associativity: 1-way (direct-mapped) to
 * 8-way for the workloads the paper highlights (gcc's lukewarm blocks
 * gain the most from associativity; xalancbmk relies on locking
 * instead).  The paper adopts 4-way: 1->2 removes many conflicts,
 * 2->4 still helps, beyond that returns diminish.
 */

#include <cstdio>
#include <vector>

#include "sim/parallel.hh"
#include "sim/result_writer.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    ParallelRunner runner(opts);
    runner.setJsonPath(args.json());

    const std::vector<uint32_t> ways = {1, 2, 4, 8};
    const std::vector<std::string> workloads = {
        "xalanc", "gcc", "omnet", "mcf", "milc", "lbm",
    };

    std::printf("=== Associativity ablation (speedup over no-NM) ===\n\n");
    std::vector<std::string> columns;
    for (uint32_t w : ways)
        columns.push_back(std::to_string(w) + "-way");

    Grid(runner, workloads, columns,
         [&](const std::string &workload, size_t col) {
             SystemConfig cfg = makeConfig(workload, "silcfm", opts);
             cfg.silc.associativity = ways[col];
             return cfg;
         })
        .print();
    std::printf("\n(paper adopts 4-way: most of the conflict removal "
                "comes by 4 ways)\n");
    runner.printFooter();
    return 0;
}
