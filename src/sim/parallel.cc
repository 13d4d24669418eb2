#include "sim/parallel.hh"

#include <cinttypes>
#include <utility>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "policy/registry.hh"
#include "sim/result_writer.hh"

namespace silc {
namespace sim {

unsigned
parallelThreadsFromEnv()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<unsigned>(
        knobs::count("SILC_THREADS", hw == 0 ? 1 : hw));
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads == 0 ? parallelThreadsFromEnv() : threads;
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
ThreadPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (tasks_.empty())
                return; // stopping, and the queue is drained
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        task();
    }
}

ParallelRunner::ParallelRunner(ExperimentOptions opts, unsigned threads)
    : opts_(opts), start_(std::chrono::steady_clock::now()),
      pool_(threads)
{
}

ParallelRunner::~ParallelRunner()
{
    writeJson();
}

void
ParallelRunner::setJsonPath(std::string path)
{
    if (path.empty())
        return;
    if (!recorded_.empty() || jobsCompleted() > 0)
        warn("setJsonPath after submissions: earlier runs are not "
             "recorded in %s", path.c_str());
    json_path_ = std::move(path);
}

void
ParallelRunner::setSampling(sample::SamplingConfig scfg)
{
    scfg.threads = 1;
    sampling_ = scfg;
}

void
ParallelRunner::writeJson()
{
    if (json_path_.empty() || json_written_)
        return;
    json_written_ = true;
    ResultWriter writer(json_path_, opts_);
    for (const Job &job : recorded_)
        writer.add(job.get());
    writer.write();
    std::fprintf(stderr, "[parallel] wrote %zu runs to %s\n",
                 writer.runs(), json_path_.c_str());
}

ParallelRunner::Job
ParallelRunner::submitJob(SystemConfig cfg, bool is_baseline)
{
    if (!json_path_.empty() && !sampling_ && !cfg.telemetry.enabled) {
        // Every recorded full run embeds its epoch time series.
        cfg.telemetry.enabled = true;
        cfg.telemetry.epoch_ticks = opts_.epoch_ticks;
    }
    auto task = std::make_shared<std::packaged_task<SimResult()>>(
        [this, cfg = std::move(cfg), is_baseline] {
            logSetThreadTag(cfg.workload + "/" + cfg.scheme);
            SimResult result = sampling_
                ? sample::runMaybeSampled(cfg, *sampling_)
                : System(cfg).run();
            logSetThreadTag("");
            if (is_baseline)
                baseline_runs_.fetch_add(1, std::memory_order_relaxed);
            jobs_completed_.fetch_add(1, std::memory_order_relaxed);
            return result;
        });
    Job job = task->get_future().share();
    if (!json_path_.empty())
        recorded_.push_back(job);
    pool_.submit([task] { (*task)(); });
    return job;
}

ParallelRunner::Job
ParallelRunner::submit(const std::string &workload,
                       const std::string &scheme)
{
    const auto &reg = policy::SchemeRegistry::instance();
    if (reg.resolve(scheme).traits.baseline)
        return baseline(workload);
    return submitJob(makeConfig(workload, scheme, opts_), false);
}

ParallelRunner::Job
ParallelRunner::submitConfig(SystemConfig cfg)
{
    return submitJob(std::move(cfg), false);
}

ParallelRunner::Job
ParallelRunner::baseline(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(baseline_mutex_);
    auto it = baselines_.find(workload);
    if (it != baselines_.end())
        return it->second;
    Job job = submitJob(
        makeConfig(workload,
                   policy::SchemeRegistry::instance().baselineName(),
                   opts_),
        true);
    baselines_.emplace(workload, job);
    return job;
}

Tick
ParallelRunner::baselineTicks(const std::string &workload)
{
    return baseline(workload).get().ticks;
}

double
ParallelRunner::speedup(const SimResult &result)
{
    const Tick base = baselineTicks(result.workload);
    return static_cast<double>(base) / static_cast<double>(result.ticks);
}

double
ParallelRunner::elapsedSeconds() const
{
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now - start_).count();
}

void
ParallelRunner::printFooter(std::FILE *out) const
{
    // Rate from the monotonic clock (start_ is steady_clock): wall
    // clock adjustments must never produce a negative or inflated
    // jobs/sec in the CI perf-smoke logs.
    const double secs = elapsedSeconds();
    const uint64_t jobs = jobsCompleted();
    const double rate =
        secs > 0.0 ? static_cast<double>(jobs) / secs : 0.0;
    std::fprintf(out,
                 "[parallel] %" PRIu64 " jobs in %.2fs (%.1f jobs/sec, "
                 "%u threads)\n",
                 jobs, secs, rate, threads());
}

Grid::Grid(ParallelRunner &runner, std::vector<std::string> workloads,
           std::vector<std::string> columns, const ConfigFn &config,
           Metric metric)
    : runner_(runner), workloads_(std::move(workloads)),
      columns_(std::move(columns)), metric_(metric),
      jobs_(workloads_.size())
{
    for (size_t w = 0; w < workloads_.size(); ++w) {
        if (metric_ == Metric::Speedup)
            runner_.baseline(workloads_[w]);
        for (size_t c = 0; c < columns_.size(); ++c)
            jobs_[w].push_back(
                runner_.submitConfig(config(workloads_[w], c)));
    }
}

std::vector<double>
Grid::print()
{
    const bool speedup = metric_ == Metric::Speedup;
    printTableHeader("bench", columns_);
    std::vector<std::vector<double>> per_column(columns_.size());
    for (size_t w = 0; w < workloads_.size(); ++w) {
        std::vector<double> row;
        for (size_t c = 0; c < columns_.size(); ++c) {
            const SimResult &r = jobs_[w][c].get();
            row.push_back(speedup ? runner_.speedup(r)
                                  : r.nmDemandFraction());
            per_column[c].push_back(row.back());
        }
        printTableRow(workloads_[w], row);
        std::fflush(stdout);
    }
    printTableRule(columns_.size());
    std::vector<double> aggregate;
    for (const auto &col : per_column) {
        double sum = 0.0;
        for (double v : col)
            sum += v;
        aggregate.push_back(speedup
            ? geomean(col)
            : sum / static_cast<double>(col.size()));
    }
    printTableRow(speedup ? "geomean" : "average", aggregate);
    return aggregate;
}

} // namespace sim
} // namespace silc
