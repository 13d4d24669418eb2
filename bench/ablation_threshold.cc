/**
 * @file
 * Section IV ablation — the hotness threshold: the paper reports that
 * a threshold of 50 (with 1M-access aging) "works the best".  This
 * scaled system ages every instructions/8 accesses, so the sweep covers
 * the proportional range around the scaled default, plus locking
 * disabled entirely.
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

    const std::vector<uint32_t> thresholds = {0, 4, 8, 12, 24, 48};
    const std::vector<std::string> workloads = {
        "xalanc", "gcc", "mcf", "milc", "lbm",
    };

    std::printf("=== Hot-threshold ablation (speedup over no-NM; 0 = "
                "locking disabled) ===\n\n");
    std::vector<std::string> columns;
    for (uint32_t t : thresholds)
        columns.push_back(t == 0 ? "off" : "t=" + std::to_string(t));

    Grid(runner, workloads, columns,
         [&](const std::string &workload, size_t col) {
             SystemConfig cfg = makeConfig(workload, "silcfm", opts);
             if (thresholds[col] == 0) {
                 cfg.silc.enable_locking = false;
             } else {
                 cfg.silc.hot_threshold = thresholds[col];
             }
             return cfg;
         })
        .print();
    std::printf("\n(paper: threshold 50 at 1M-access aging; this "
                "system's default is the proportional equivalent)\n");
    runner.printFooter();
    return 0;
}
