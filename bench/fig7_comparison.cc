/**
 * @file
 * Figure 7 — "Performance Comparison with Other Schemes": speedup over
 * the no-NM baseline for every scheme the registry marks as a matrix
 * member (Random, HMA, CAMEO, CAMEO+P, PoM, the pure DRAM cache,
 * MemCache and SILC-FM) across all 14 Table III workloads, plus the
 * geometric mean.  The column list is enumerated from the registry, so
 * a newly registered scheme shows up here without editing this file.
 *
 * Paper shape to check (Section V-B): SILC-FM wins overall (+36% over
 * the best alternative); CAMEO is the strongest hardware baseline; HMA
 * beats Random but reacts slowly (gems degrades); PoM pays 2KB
 * migration bandwidth.
 *
 * Scale with SILC_CORES / SILC_INSTR / SILC_NM_MIB / SILC_FM_MIB;
 * SILC_THREADS controls the simulation fan-out.  --sample runs every
 * cell through the statistical sampler (src/sample/); policies that
 * cannot checkpoint (HMA's tick-coupled state) fall back to a full run,
 * so the grid shape is unchanged.
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "policy/registry.hh"
#include "sim/parallel.hh"
#include "sim/result_writer.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, {"--sample"});
    ExperimentOptions opts = ExperimentOptions::fromEnv();

    // Every registry scheme flagged for the comparison matrix; silcfm
    // is registered last so means.back() below is the SILC-FM column.
    const std::vector<std::string> schemes =
        policy::SchemeRegistry::instance().matrixNames();

    std::printf("=== Figure 7: speedup over no-NM baseline ===\n");
    std::printf("(cores=%u, instr/core=%" PRIu64 ", NM=%" PRIu64
                "MiB, FM=%" PRIu64 "MiB)\n\n",
                opts.cores, opts.instructions_per_core,
                opts.nm_bytes >> 20, opts.fm_bytes >> 20);

    ParallelRunner runner(opts);
    runner.setJsonPath(args.json());
    if (args.has("--sample"))
        runner.setSampling(sample::SamplingConfig::fromEnv());

    const std::vector<double> means =
        Grid(runner, trace::profileNames(), schemes,
             [&](const std::string &workload, size_t col) {
                 return makeConfig(workload, schemes[col], opts);
             })
            .print();

    const double silc = means.back();
    double best_other = 0.0;
    std::string best_name;
    for (size_t i = 0; i + 1 < means.size(); ++i) {
        if (means[i] > best_other) {
            best_other = means[i];
            best_name = schemes[i];
        }
    }
    std::printf("\nSILC-FM vs best alternative (%s): %+.1f%% "
                "(paper: +36%% over the state of the art)\n",
                best_name.c_str(), 100.0 * (silc / best_other - 1.0));
    runner.printFooter();
    return 0;
}
