/**
 * @file
 * Figure 8 — "Fraction of FM and NM Bandwidth Usage": per scheme, the
 * share of *demand* bytes serviced by NM (migration traffic excluded,
 * as in the paper).
 *
 * Paper shape to check (Section V-B): the ideal point is 0.8 (the NM
 * share of total system bandwidth); HMA ~0.71, PoM ~0.58, CAMEO lower,
 * CAMEO+P imbalanced towards NM, SILC-FM ~0.76 — within 4% of ideal
 * thanks to bypassing.
 *
 * --perf mode: run ONE fig8-class (bandwidth-bound, full channel
 * count) simulation and report simulator throughput on stderr as
 * "[simpar] T ticks in X.XXs (Y.YY mticks/sec)".  This is the fixture
 * behind BENCH_fig8.json and the perf-smoke-fig8 CI gate: it times the
 * sequential run loop on one long simulation, which the grid benches —
 * dominated by run-level parallelism — cannot isolate.
 *
 * --sample: the same table via the statistical sampler (src/sample/);
 * the NM share comes from the extrapolated window demand bytes.  HMA
 * falls back to a full run.
 */

#include <chrono>
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

namespace {

/** The fig8-class perf fixture: paper bandwidth shape, one run. */
int
runPerfMode()
{
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    SystemConfig cfg = makeConfig("lbm", "silcfm", opts);
    // Full paper channel counts (the table runs use the scaled-down
    // machine): 8 HBM2 pseudo-channels against 4 DDR3 channels keep
    // both devices' controllers busy.
    cfg.nm_timing = dram::hbm2Params();
    cfg.fm_timing = dram::ddr3Params();
    cfg.fm_timing.channels = 4;

    const auto t0 = std::chrono::steady_clock::now();
    System system(cfg);
    const SimResult r = system.run();
    const double secs = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    const double mticks = secs > 0.0
        ? static_cast<double>(r.ticks) / 1e6 / secs
        : 0.0;

    std::printf("fig8-perf %s/%s cores=%u instr=%" PRIu64
                " ticks=%" PRIu64 " ipc=%.3f\n",
                r.workload.c_str(), r.scheme.c_str(), r.cores,
                opts.instructions_per_core, r.ticks, r.ipc);
    // CI parses this footer with a fixed regex.
    std::fprintf(stderr,
                 "[simpar] %" PRIu64 " ticks in %.2fs (%.2f mticks/sec)\n",
                 r.ticks, secs, mticks);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, {"--perf", "--sample"});
    if (args.has("--perf"))
        return runPerfMode();

    ExperimentOptions opts = ExperimentOptions::fromEnv();

    // Same registry-driven matrix as fig7; silcfm last (means.back()).
    const std::vector<std::string> schemes =
        policy::SchemeRegistry::instance().matrixNames();

    std::printf("=== Figure 8: NM share of demand bandwidth "
                "(ideal = 0.80) ===\n\n");

    ParallelRunner runner(opts);
    runner.setJsonPath(args.json());
    if (args.has("--sample"))
        runner.setSampling(sample::SamplingConfig::fromEnv());

    const std::vector<double> means =
        Grid(runner, trace::profileNames(), schemes,
             [&](const std::string &workload, size_t col) {
                 return makeConfig(workload, schemes[col], opts);
             },
             Grid::Metric::NmShare)
            .print();
    std::printf("\nSILC-FM average NM share: %.2f (paper: 0.76, "
                "4%% below the 0.80 ideal)\n", means.back());
    runner.printFooter();
    return 0;
}
