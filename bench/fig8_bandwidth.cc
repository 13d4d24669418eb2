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
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "policy/registry.hh"
#include "sample/sampling.hh"
#include "sim/parallel.hh"
#include "sim/result_writer.hh"
#include "trace/profiles.hh"

using namespace silc;
using namespace silc::sim;

namespace {

/**
 * --sample mode: the same NM-share table via the statistical sampler
 * (src/sample/), sequentially; nmDemandFraction comes from the
 * extrapolated window demand bytes.  HMA falls back to a full run.
 */
int
runSampledMode(int argc, char **argv, const ExperimentOptions &opts,
               const std::vector<std::string> &schemes)
{
    const sample::SamplingConfig scfg = sample::SamplingConfig::fromEnv();
    printTableHeader("bench", schemes);

    ResultWriter writer(jsonOutputPath(argc, argv), opts);
    const std::vector<std::string> workloads = trace::profileNames();
    std::vector<std::vector<double>> per_scheme(schemes.size());
    for (const auto &w : workloads) {
        std::vector<double> row;
        for (size_t i = 0; i < schemes.size(); ++i) {
            const SimResult r = sample::runMaybeSampled(
                makeConfig(w, schemes[i], opts), scfg);
            writer.add(r);
            const double f = r.nmDemandFraction();
            per_scheme[i].push_back(f);
            row.push_back(f);
        }
        printTableRow(w, row);
        std::fflush(stdout);
    }
    printTableRule(schemes.size());
    std::vector<double> means;
    for (const auto &col : per_scheme) {
        double sum = 0.0;
        for (double v : col)
            sum += v;
        means.push_back(sum / static_cast<double>(col.size()));
    }
    printTableRow("average", means);
    if (!writer.path().empty())
        writer.write();
    return 0;
}

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

    std::printf("fig8-perf %s/%s cores=%s instr=%s ticks=%s ipc=%.3f\n",
                r.workload.c_str(), r.scheme.c_str(),
                u64str(r.cores).c_str(),
                u64str(opts.instructions_per_core).c_str(),
                u64str(r.ticks).c_str(), r.ipc);
    // Locale-stable footer; CI parses it with a fixed regex.
    std::fprintf(stderr, "[simpar] %s ticks in %ss (%s mticks/sec)\n",
                 u64str(r.ticks).c_str(),
                 fixedDecimal(secs, 2).c_str(),
                 fixedDecimal(mticks, 2).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool sampled = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--perf") == 0)
            return runPerfMode();
        if (std::strcmp(argv[i], "--sample") == 0)
            sampled = true;
    }

    ExperimentOptions opts = ExperimentOptions::fromEnv();

    // Same registry-driven matrix as fig7; silcfm last (means.back()).
    const std::vector<std::string> schemes =
        policy::SchemeRegistry::instance().matrixNames();

    std::printf("=== Figure 8: NM share of demand bandwidth "
                "(ideal = 0.80) ===\n\n");
    if (sampled)
        return runSampledMode(argc, argv, opts, schemes);

    ParallelRunner runner(opts);
    runner.setJsonPath(jsonOutputPath(argc, argv));

    printTableHeader("bench", schemes);

    const std::vector<std::string> workloads = trace::profileNames();
    std::vector<std::vector<ParallelRunner::Job>> jobs(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w)
        for (const std::string &scheme : schemes)
            jobs[w].push_back(runner.submit(workloads[w], scheme));

    std::vector<std::vector<double>> per_scheme(schemes.size());
    for (size_t w = 0; w < workloads.size(); ++w) {
        std::vector<double> row;
        for (size_t i = 0; i < schemes.size(); ++i) {
            const double f = jobs[w][i].get().nmDemandFraction();
            per_scheme[i].push_back(f);
            row.push_back(f);
        }
        printTableRow(workloads[w], row);
        std::fflush(stdout);
    }

    printTableRule(schemes.size());
    std::vector<double> means;
    for (const auto &col : per_scheme) {
        double sum = 0.0;
        for (double v : col)
            sum += v;
        means.push_back(sum / static_cast<double>(col.size()));
    }
    printTableRow("average", means);
    std::printf("\nSILC-FM average NM share: %.2f (paper: 0.76, "
                "4%% below the 0.80 ideal)\n", means.back());
    runner.printFooter();
    return 0;
}
