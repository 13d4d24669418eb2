/**
 * @file
 * Statistical sampling subsystem: SMARTS-style systematic sampling with
 * functional warming and checkpointed parallel replay.
 *
 * A sampled run replaces one long detailed simulation with:
 *
 *  1. One sequential **functional-warming** pass over the whole
 *     instruction stream.  Cores, caches, translation and the policy's
 *     metadata state machine (remap tables, bit vectors, locks,
 *     predictor, balancer, activity counters) all update exactly as in
 *     detailed mode, but LLC misses complete synchronously: no MSHRs,
 *     no DRAM timing, no queueing (System::setFunctionalMode()).  At
 *     every systematic interval of SILC_SAMPLE_PERIOD per-core
 *     instructions the warming system is checkpointed to an in-memory
 *     blob (sample/checkpoint.hh).
 *
 *  2. N independent **detailed replays**, one per checkpoint, executed
 *     in parallel on the shared ThreadPool (sim/parallel.hh).  Each
 *     replay restores its blob into a fresh System, runs
 *     SILC_SAMPLE_WARMUP detailed instructions per core to re-warm the
 *     timing state (MSHRs, DRAM queues, row buffers) — discarded — and
 *     then measures a SILC_SAMPLE_WINDOW-instruction detailed window by
 *     differencing counters across the window edges.
 *
 *  3. Aggregation: per-metric mean and 95% confidence interval over the
 *     window population (Student's t), reported in a `sampling` section
 *     of the silc.results.v1 JSON document.  When SILC_SAMPLE_CI_TARGET
 *     is set, replay stops early (at deterministic batch boundaries)
 *     once the relative CI half-width of IPC drops below the target.
 *
 * Determinism: warming is sequential; every replay runs the sequential
 * loop from a byte-exact blob; windows are collected in checkpoint order and
 * early stopping is evaluated only at fixed batch boundaries — so
 * results are byte-identical across SILC_THREADS values.
 *
 * Environment knobs (see also sim/experiment.hh):
 *   SILC_SAMPLE_PERIOD      per-core instructions between checkpoints
 *   SILC_SAMPLE_WINDOW      measured detailed instructions per core
 *   SILC_SAMPLE_WARMUP      discarded detailed warmup per core
 *   SILC_SAMPLE_MIN_WINDOWS minimum windows before early stopping
 *   SILC_SAMPLE_CI_TARGET   relative IPC CI half-width target (0 = off)
 */

#ifndef SILC_SAMPLE_SAMPLING_HH
#define SILC_SAMPLE_SAMPLING_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sample/checkpoint.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"

namespace silc {
namespace sample {

/** Knobs of one sampled run. */
struct SamplingConfig
{
    /** Per-core instructions between checkpoints (SILC_SAMPLE_PERIOD). */
    uint64_t period = 200'000;
    /** Measured detailed instructions per core (SILC_SAMPLE_WINDOW). */
    uint64_t window = 5'000;
    /** Discarded detailed warmup per core (SILC_SAMPLE_WARMUP). */
    uint64_t warmup = 5'000;
    /** Windows required before early stopping may trigger. */
    uint32_t min_windows = 5;
    /**
     * Early-stop target: relative 95% CI half-width on IPC
     * (SILC_SAMPLE_CI_TARGET, e.g. 0.02 for +/-2%).  0 disables early
     * stopping and replays every checkpoint.
     */
    double ci_target = 0.0;
    /** Replay pool width; 0 means SILC_THREADS (sim/parallel.hh). */
    unsigned threads = 0;

    /** Read SILC_SAMPLE_* overrides from the environment. */
    static SamplingConfig fromEnv();

    /** fatal() on inconsistent settings (e.g. warmup+window > period). */
    void validate() const;
};

/** Metrics of one detailed measurement window (counter deltas). */
struct WindowSample
{
    uint64_t index = 0;        ///< checkpoint index (systematic order)
    uint64_t instructions = 0; ///< total retired across cores
    Tick ticks = 0;            ///< window length in ticks
    double ipc = 0.0;
    double mpki = 0.0;
    double avg_miss_latency = 0.0;
    double access_rate = 0.0;      ///< NM-serviced demand fraction
    double swaps_per_kilo = 0.0;   ///< SILC-FM subblock swaps / 1k instr
    double bypass_per_kilo = 0.0;  ///< SILC-FM bypasses / 1k instr
    double fm_read_p50 = 0.0;      ///< FM read queue delay percentiles
    double fm_read_p95 = 0.0;
    double nm_read_p95 = 0.0;
    /** NM share of demand bytes in the window (Figure 8's metric). */
    double nm_demand_fraction = 0.0;
    /** Raw demand-byte deltas, for extrapolating run totals. */
    uint64_t nm_demand_bytes = 0;
    uint64_t fm_demand_bytes = 0;
};

/** Mean and 95% confidence half-width of one metric. */
struct MetricEstimate
{
    std::string name;
    double mean = 0.0;
    double ci_half = 0.0; ///< 95% CI half-width (0 when n < 2)
    uint32_t n = 0;
};

/** What a sampled run reports alongside the synthesized SimResult. */
struct SamplingReport
{
    uint64_t period = 0;
    uint64_t window = 0;
    uint64_t warmup = 0;
    uint32_t checkpoints = 0;       ///< captured during warming
    uint32_t windows = 0;           ///< actually replayed
    bool early_stopped = false;
    /**
     * Per-core instructions actually executed functionally.  Equals the
     * last checkpoint position (warming stops there — the tail past it
     * feeds no window), or the full per-core budget under SILC_CHECK,
     * where the oracle verifies the whole stream.
     */
    uint64_t warm_instructions = 0;
    std::vector<MetricEstimate> metrics;

    /** Lookup by metric name; nullptr when absent. */
    const MetricEstimate *find(const std::string &name) const;
};

/**
 * Accumulates WindowSamples and produces per-metric mean + 95% CI
 * (Student's t over the window population).
 */
class StatsAggregator
{
  public:
    void add(const WindowSample &s) { samples_.push_back(s); }
    size_t windows() const { return samples_.size(); }
    const std::vector<WindowSample> &samples() const { return samples_; }

    /** Estimates for every metric, in a fixed order (ipc first). */
    std::vector<MetricEstimate> estimates() const;

    /** Estimate of a single named metric (fatal on unknown name). */
    MetricEstimate estimate(const std::string &name) const;

    /** Two-sided 95% Student's t critical value for @p df (>= 1). */
    static double tCritical95(uint32_t df);

  private:
    std::vector<WindowSample> samples_;
};

/**
 * Drives one sampled run: functional warming + checkpointing, parallel
 * detailed replay, aggregation.  The returned SimResult carries the
 * window-mean IPC/MPKI/latency/access-rate (with ticks back-derived
 * from the mean IPC), the warming run's footprint, and the full
 * SamplingReport in SimResult::sampling.  DRAM traffic/energy fields
 * are not estimated by sampling and read zero.
 */
class SamplingController
{
  public:
    SamplingController(sim::SystemConfig cfg, SamplingConfig scfg);

    /** Run warming + replay; fatal if the policy cannot sample. */
    sim::SimResult run();

  private:
    WindowSample replayWindow(const Checkpoint &ckpt, uint64_t index);

    sim::SystemConfig cfg_;
    SamplingConfig scfg_;
};

/**
 * Sampled run when the policy supports it (FlatMemoryPolicy::
 * supportsSampling()), full detailed run otherwise (with a warning) —
 * the benches' --sample entry point, so HMA rows keep working.
 */
sim::SimResult runMaybeSampled(const sim::SystemConfig &cfg,
                               const SamplingConfig &scfg);

} // namespace sample
} // namespace silc

#endif // SILC_SAMPLE_SAMPLING_HH
