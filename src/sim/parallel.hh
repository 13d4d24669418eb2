/**
 * @file
 * Parallel experiment execution: a FIFO thread pool, the ParallelRunner
 * that fans simulations out over it, and the Grid every figure bench
 * prints its table through.
 *
 * Every paper figure is a grid of independent (workload, variant)
 * simulations; each sim::System is self-contained, so the grid is
 * embarrassingly parallel.  Benches submit all jobs up front and then
 * collect results in submission order, which keeps the printed tables
 * byte-identical to a sequential run regardless of thread count.
 *
 * Thread count comes from the SILC_THREADS environment variable
 * (default: hardware_concurrency; 1 preserves the sequential behavior).
 */

#ifndef SILC_SIM_PARALLEL_HH
#define SILC_SIM_PARALLEL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sample/sampling.hh"
#include "sim/experiment.hh"

namespace silc {
namespace sim {

/** SILC_THREADS, or hardware_concurrency when unset (never 0). */
unsigned parallelThreadsFromEnv();

/**
 * A fixed set of workers taking tasks from one FIFO queue.  Tasks are
 * whole simulations (milliseconds and up), so one mutex and one
 * condition variable cost nothing measurable.  Destruction drains every
 * queued task before joining.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means parallelThreadsFromEnv(). */
    explicit ThreadPool(unsigned threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task for execution on some worker. */
    void submit(std::function<void()> task);

    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> tasks_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/**
 * Runs simulations on a ThreadPool and hands results back through
 * futures, caching each workload's no-NM baseline so every speedup in
 * a bench shares one denominator (the paper's figure of merit:
 * baseline time / scheme time).  Under sampling, a job whose policy
 * cannot checkpoint runs in full detail, and its speedup divides by a
 * full-detail baseline cached the same way (see fullBaseline()).
 *
 * The no-NM baseline of each workload is resolved exactly once behind a
 * mutex-guarded future cache: the first requester submits the baseline
 * job, later requesters share the same future, so every speedup keeps a
 * shared denominator no matter which thread finishes first.
 *
 * Benches call speedup()/baselineTicks() only from the collecting
 * (main) thread; worker threads never block on futures, so the pool
 * cannot deadlock even with a single worker.
 */
class ParallelRunner
{
  public:
    /** A pending simulation result. */
    using Job = std::shared_future<SimResult>;

    /** @param threads worker count; 0 means parallelThreadsFromEnv(). */
    explicit ParallelRunner(ExperimentOptions opts, unsigned threads = 0);

    /** Flushes the JSON result file (if configured) after draining. */
    ~ParallelRunner();

    const ExperimentOptions &options() const { return opts_; }
    unsigned threads() const { return pool_.threads(); }

    /**
     * Record every subsequently submitted run and write one JSON
     * document (sim/result_writer.hh schema) to @p path when the runner
     * is destroyed or writeJson() is called.  Turns on per-run telemetry
     * so each full run embeds its epoch time series.  Empty path
     * disables (so benches can pass BenchArgs::json() unconditionally).
     * Call before the first submit.
     */
    void setJsonPath(std::string path);

    /**
     * Run every subsequently submitted job through
     * sample::runMaybeSampled with @p scfg instead of System::run (the
     * benches' --sample).  Each sampled job replays its windows on one
     * thread, since the pool already runs one job per worker, and
     * records no telemetry.  Call before the first submit.
     */
    void setSampling(sample::SamplingConfig scfg);

    /** True once setSampling() was called. */
    bool sampling() const { return sampling_.has_value(); }

    /**
     * Wait for all recorded jobs and write the JSON document now.
     * Idempotent; the destructor calls it.  Only call from the main
     * (submitting) thread.
     */
    void writeJson();

    /**
     * Submit one (workload, scheme) pair.  Baseline-scheme requests are
     * routed through the baseline cache so they are never run twice.
     */
    Job submit(const std::string &workload, const std::string &scheme);

    /** Submit a caller-tweaked config (capacity sweeps, ablations). */
    Job submitConfig(SystemConfig cfg);

    /**
     * The cached no-NM baseline run of @p workload; submitted on first
     * request.  Benches call this up front so the denominator runs
     * overlap with the scheme runs.
     */
    Job baseline(const std::string &workload);

    /**
     * Like baseline(), but never sampled.  A sampled job that fell back
     * to full detail submits it early if baseline() was requested for
     * its workload.  The JSON document lists it after the other jobs.
     */
    Job fullBaseline(const std::string &workload);

    /** Execution ticks of the no-NM baseline (blocks until ready). */
    Tick baselineTicks(const std::string &workload);

    /** Speedup of @p result against its workload's no-NM baseline
     *  (fullBaseline() when @p result fell back to full detail). */
    double speedup(const SimResult &result);

    /** Simulations finished so far (including baselines). */
    uint64_t jobsCompleted() const
    {
        return jobs_completed_.load(std::memory_order_relaxed);
    }

    /** Baseline simulations actually executed (for tests). */
    uint64_t baselineRuns() const
    {
        return baseline_runs_.load(std::memory_order_relaxed);
    }

    /** Wall-clock seconds since construction. */
    double elapsedSeconds() const;

    /**
     * Print "N jobs in S s (J jobs/sec, T threads)" to @p out.  Goes to
     * stderr by default so stdout tables stay byte-identical across
     * thread counts (the bench_smoke test diffs stdout).
     */
    void printFooter(std::FILE *out = stderr) const;

  private:
    /** @p full_detail bypasses sampling and the JSON record, since
     *  workers submit such jobs (see fullBaseline()). */
    Job submitJob(SystemConfig cfg, bool is_baseline,
                  bool full_detail = false);

    /** The baseline job of @p workload in @p cache, submitted on first
     *  request.  Caller holds baseline_mutex_. */
    Job cachedBaseline(std::map<std::string, Job> &cache,
                       const std::string &workload, bool full_detail);

    ExperimentOptions opts_;
    std::chrono::steady_clock::time_point start_;

    /** Jobs in submission order for the JSON document (main thread). */
    std::string json_path_;
    std::vector<Job> recorded_;
    bool json_written_ = false;

    std::optional<sample::SamplingConfig> sampling_;

    std::mutex baseline_mutex_;
    std::map<std::string, Job> baselines_;
    std::map<std::string, Job> full_baselines_;

    std::atomic<uint64_t> jobs_completed_{0};
    std::atomic<uint64_t> baseline_runs_{0};

    // Last member: destroyed first, so the pool drains and joins every
    // in-flight job before the counters and cache above go away.
    ThreadPool pool_;
};

/**
 * One figure grid: a row per workload, a column per variant, one
 * simulation per cell, printed as a table closed by an aggregate row.
 * Every paper figure and ablation bench is one (fig9: one per scheme).
 *
 * Construction submits the jobs: each row's no-NM baseline (speedup
 * grids only), then the row's cells.  print() collects in submission
 * order, so the table is byte-identical at any thread count.  Keeping
 * the two apart lets a bench submit several grids before it prints any.
 */
class Grid
{
  public:
    /** What each cell shows, and the aggregate row under the cells. */
    enum class Metric
    {
        Speedup, ///< baseline ticks / cell ticks; "geomean" row
        NmShare, ///< NM share of demand bytes; arithmetic "average" row
    };

    /** The config of the cell in row @p workload, column @p col. */
    using ConfigFn =
        std::function<SystemConfig(const std::string &workload, size_t col)>;

    Grid(ParallelRunner &runner, std::vector<std::string> workloads,
         std::vector<std::string> columns, const ConfigFn &config,
         Metric metric = Metric::Speedup);

    /**
     * Print the header, one row per workload, the rule and the aggregate
     * row to stdout; returns the aggregate row.  Blocks on the jobs.  A
     * sampled speedup grid then names the columns that ran in full
     * detail (see ParallelRunner::speedup()).
     */
    std::vector<double> print();

  private:
    ParallelRunner &runner_;
    std::vector<std::string> workloads_;
    std::vector<std::string> columns_;
    Metric metric_;
    std::vector<std::vector<ParallelRunner::Job>> jobs_;
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_PARALLEL_HH
