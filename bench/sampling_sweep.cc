/**
 * @file
 * Sampling validation sweep: runs the same configuration twice — once in
 * full detail, once through the statistical sampling subsystem
 * (src/sample/) — and prints every sampled metric next to the full-run
 * value and its 95% confidence interval.  This is the differential
 * harness behind the sampling-smoke CI job and BENCH_sampling.json: a
 * healthy sampler keeps each full-run value inside the sampled CI while
 * finishing several times faster.
 *
 * Scale with SILC_CORES / SILC_INSTR / SILC_SEED; tune the sampler with
 * SILC_SAMPLE_PERIOD / SILC_SAMPLE_WINDOW / SILC_SAMPLE_WARMUP /
 * SILC_SAMPLE_MIN_WINDOWS / SILC_SAMPLE_CI_TARGET.  SILC_CHECK=1 runs
 * the differential oracle during the functional-warming pass.
 *
 * --json <path> (or SILC_JSON) writes a silc.results.v1 document whose
 * runs array is [full, sampled]; the sampled run carries the "sampling"
 * section.  --workload <name> picks a Table III workload (default mcf).
 * --paper-channels uses the full paper channel counts (8 HBM2
 * pseudo-channels vs 4 DDR3 channels, as fig8 --perf) instead of the
 * scaled-down table machine — the BENCH_sampling.json fixture, since
 * detailed-mode cost there reflects a bandwidth-stressed memory system.
 * Stderr footer for CI parsing:
 *   [sampling] W windows in S s (Fx speedup, C checkpoints)
 */

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "dram/timing.hh"
#include "sample/sampling.hh"
#include "sim/result_writer.hh"

using namespace silc;
using namespace silc::sim;

namespace {

double
seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv, {"--paper-channels"}, {"--workload"});
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    sample::SamplingConfig scfg = sample::SamplingConfig::fromEnv();
    const std::string workload = args.value("--workload", "mcf");
    SystemConfig cfg = makeConfig(workload, "silcfm", opts);
    if (args.has("--paper-channels")) {
        cfg.nm_timing = dram::hbm2Params();
        cfg.fm_timing = dram::ddr3Params();
        cfg.fm_timing.channels = 4;
    }

    std::printf("=== Sampling validation: %s, silcfm ===\n",
                workload.c_str());
    std::printf("(cores=%u, instr/core=%" PRIu64 ", period=%" PRIu64
                ", window=%" PRIu64 ", warmup=%" PRIu64 ")\n\n",
                opts.cores, opts.instructions_per_core, scfg.period,
                scfg.window, scfg.warmup);

    const auto t_full = std::chrono::steady_clock::now();
    SimResult full;
    {
        System sys(cfg);
        full = sys.run();
    }
    const double full_s = seconds_since(t_full);

    const auto t_samp = std::chrono::steady_clock::now();
    const SimResult sampled = sample::runMaybeSampled(cfg, scfg);
    const double samp_s = seconds_since(t_samp);

    // Full-run values for each sampled metric, in kMetricDefs order.
    const struct
    {
        const char *name;
        double full_value;
    } rows[] = {
        {"ipc", full.ipc},
        {"mpki", full.mpki},
        {"avg_miss_latency", full.avg_miss_latency},
        {"access_rate", full.access_rate},
        {"nm_demand_fraction", full.nmDemandFraction()},
    };

    std::printf("%-20s %12s %12s %12s %8s\n", "metric", "full",
                "sampled", "ci95_half", "within");
    int outside = 0;
    for (const auto &row : rows) {
        const sample::MetricEstimate *e =
            sampled.sampling ? sampled.sampling->find(row.name) : nullptr;
        if (e == nullptr)
            continue;
        const bool within =
            std::fabs(row.full_value - e->mean) <= e->ci_half;
        outside += within ? 0 : 1;
        std::printf("%-20s %12.4f %12.4f %12.4f %8s\n", row.name,
                    row.full_value, e->mean, e->ci_half,
                    within ? "yes" : "NO");
    }
    if (sampled.sampling) {
        // Sampled-only metrics (no full-run scalar in SimResult).
        for (const char *name :
             {"swaps_per_kilo", "bypass_per_kilo", "fm_read_p50",
              "fm_read_p95", "nm_read_p95"}) {
            const sample::MetricEstimate *e = sampled.sampling->find(name);
            if (e != nullptr) {
                std::printf("%-20s %12s %12.4f %12.4f %8s\n", name, "-",
                            e->mean, e->ci_half, "-");
            }
        }
        std::printf("\ncheckpoints=%u windows=%u early_stopped=%d\n",
                    sampled.sampling->checkpoints,
                    sampled.sampling->windows,
                    sampled.sampling->early_stopped ? 1 : 0);
    }
    std::printf("full %.2fs, sampled %.2fs, metrics outside CI: %d\n",
                full_s, samp_s, outside);

    const std::string json = args.json();
    if (!json.empty()) {
        ResultWriter writer(json, opts);
        writer.add(full);
        writer.add(sampled);
        writer.write();
        std::printf("wrote %s\n", json.c_str());
    }

    const double speedup = samp_s > 0.0 ? full_s / samp_s : 0.0;
    std::fprintf(stderr,
                 "[sampling] %u windows in %.2fs (%.2fx speedup, %u "
                 "checkpoints)\n",
                 sampled.sampling ? sampled.sampling->windows : 0, samp_s,
                 speedup,
                 sampled.sampling ? sampled.sampling->checkpoints : 0);
    return 0;
}
