#include "workloads.hh"

#include <algorithm>
#include <future>
#include <memory>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "core/silc_fm.hh"
#include "policy/registry.hh"
#include "sim/parallel.hh"
#include "trace/generator.hh"
#include "trace/profiles.hh"

namespace perfbench {

using silc::Tick;
using silc::sim::ExperimentOptions;
using silc::sim::SimResult;
using silc::sim::System;
using silc::sim::SystemConfig;
using silc::sample::SamplingConfig;

namespace {

bool
tiny(const Params &p)
{
    return p.scale == Scale::Tiny;
}

/** fig7 shape: 14 Table III profiles x (baseline + 8 matrix schemes). */
ExperimentOptions
matrixOptions(const Params &p)
{
    ExperimentOptions o;
    o.cores = tiny(p) ? 2 : 4;
    o.instructions_per_core = tiny(p) ? 5'000 : 100'000;
    o.seed = p.seed;
    return o;
}

/** (workload, scheme) of every matrix job, in submission order. */
std::vector<std::pair<std::string, std::string>>
matrixJobs()
{
    const auto &reg = silc::policy::SchemeRegistry::instance();
    std::vector<std::pair<std::string, std::string>> jobs;
    for (const std::string &w : silc::trace::profileNames()) {
        jobs.emplace_back(w, reg.baselineName());
        for (const std::string &s : reg.matrixNames())
            jobs.emplace_back(w, s);
    }
    return jobs;
}

/** fig8 --perf shape: lbm/silcfm at the paper's channel counts. */
SystemConfig
streamConfig(const Params &p)
{
    ExperimentOptions o;
    o.cores = 8;
    o.instructions_per_core = tiny(p) ? 10'000 : 400'000;
    o.seed = p.seed;
    SystemConfig cfg = silc::sim::makeConfig("lbm", "silcfm", o);
    cfg.nm_timing = silc::dram::hbm2Params();
    cfg.fm_timing = silc::dram::ddr3Params();
    cfg.fm_timing.channels = 4;
    return cfg;
}

/** SMARTS-sampled mcf/silcfm on the scaled 8-core machine. */
SystemConfig
sampledConfig(const Params &p)
{
    ExperimentOptions o;
    o.cores = 8;
    o.instructions_per_core = tiny(p) ? 60'000 : 2'000'000;
    o.seed = p.seed;
    return silc::sim::makeConfig("mcf", "silcfm", o);
}

SamplingConfig
samplingConfig(const Params &p)
{
    SamplingConfig s;
    s.period = tiny(p) ? 20'000 : 200'000;
    s.window = tiny(p) ? 2'000 : 5'000;
    s.warmup = tiny(p) ? 2'000 : 5'000;
    s.min_windows = 5;
    s.ci_target = 0.0;
    s.threads = poolWidth(Workload::SampledMcf);
    return s;
}

/**
 * The configuration the sampling layer is measured on: sampled_mcf's
 * own; for the other workloads a representative silcfm job of theirs
 * with four checkpoints.
 */
std::pair<SystemConfig, SamplingConfig>
sampleSetup(const Params &p)
{
    if (p.workload == Workload::SampledMcf)
        return {sampledConfig(p), samplingConfig(p)};
    SystemConfig cfg = p.workload == Workload::StreamBw
        ? streamConfig(p)
        : silc::sim::makeConfig("mcf", "silcfm", matrixOptions(p));
    SamplingConfig s;
    s.period = cfg.instructions_per_core / 4;
    s.window = std::min<uint64_t>(5'000, s.period / 4);
    s.warmup = s.window;
    s.ci_target = 0.0;
    s.threads = poolWidth(Workload::SampledMcf);
    return {cfg, s};
}

std::vector<std::string>
workloadProfiles(const Params &p)
{
    switch (p.workload) {
      case Workload::Matrix:
        return silc::trace::profileNames();
      case Workload::StreamBw:
        return {"lbm"};
      case Workload::SampledMcf:
        return {"mcf"};
    }
    return {};
}

/** Seed of core 0's generator, as System derives it. */
uint64_t
generatorSeed(const Params &p)
{
    return p.seed * 7919 + 13;
}

/** Run @p tasks on a pool of @p threads; per-task host seconds. */
PoolTimes
runPool(unsigned threads, std::vector<std::function<void()>> tasks)
{
    PoolTimes out;
    out.threads = threads;
    out.job_s.assign(tasks.size(), 0.0);
    const Clock::time_point t0 = Clock::now();
    {
        silc::sim::ThreadPool pool(threads);
        std::vector<std::future<void>> futs;
        futs.reserve(tasks.size());
        for (size_t i = 0; i < tasks.size(); ++i) {
            auto task = std::make_shared<std::packaged_task<void()>>(
                [&out, &tasks, i] {
                    const Clock::time_point j0 = Clock::now();
                    tasks[i]();
                    out.job_s[i] = secondsBetween(j0, Clock::now());
                });
            futs.push_back(task->get_future());
            pool.submit([task] { (*task)(); });
        }
        for (auto &f : futs)
            f.get();
    }
    out.wall_s = secondsBetween(t0, Clock::now());
    return out;
}

/** Build, run and collect one traced simulation of @p cfg. */
SimResult
tracedRun(const SystemConfig &cfg, LayerTotals &totals, uint64_t salt)
{
    setThreadTotals(&totals);
    const Clock::time_point t0 = Clock::now();
    System sys(cfg);
    totals.setup_s += secondsBetween(t0, Clock::now());
    setThreadTotals(nullptr);

    TracedLoop loop(sys, totals, cfg.seed * 0x9E3779B97F4A7C15ULL + salt);
    const bool done = loop.runToBudget();
    SimResult r = loop.collect(done);
    loop.harvest();
    return r;
}

/**
 * Copy of SamplingController::replayWindow driven by TracedLoop: restore
 * the checkpoint into a fresh traced System, run the discarded detailed
 * warmup, then measure the window by differencing counters.
 */
silc::sample::WindowSample
tracedReplay(const SystemConfig &cfg, const SamplingConfig &scfg,
             const std::vector<uint8_t> &blob, uint64_t index,
             LayerTotals &totals)
{
    SystemConfig rcfg = cfg;
    rcfg.scheme = tracedScheme(cfg.scheme);
    rcfg.sim_threads = 1;
    rcfg.telemetry.enabled = false;
    rcfg.check = false;
    rcfg.instructions_per_core = scfg.warmup;

    setThreadTotals(&totals);
    const Clock::time_point t0 = Clock::now();
    System sys(rcfg);
    totals.setup_s += secondsBetween(t0, Clock::now());
    setThreadTotals(nullptr);
    silc::BlobReader reader(blob);
    sys.restoreState(reader);

    TracedLoop loop(sys, totals, cfg.seed * 0x9E3779B97F4A7C15ULL + index);
    if (!loop.runToBudget())
        silc::fatal("sampling: detailed warmup hit the tick limit");

    const Tick t_0 = loop.cycle();
    const silc::sim::MemoryHierarchy &h = sys.hierarchy();
    const uint64_t miss0 = h.llcMisses();
    const double lat0 = h.missLatencySum();
    const uint64_t done0 = h.missesCompleted();
    const auto &traced = dynamic_cast<const TracedPolicy &>(sys.policyRef());
    const silc::policy::FlatMemoryPolicy &pol = traced.inner();
    const uint64_t nm0 = pol.nmServiced();
    const uint64_t fm0 = pol.fmServiced();
    const auto *silc_pol =
        dynamic_cast<const silc::core::SilcFmPolicy *>(&pol);
    const uint64_t swaps0 = silc_pol ? silc_pol->subblockSwaps() : 0;
    const uint64_t bypass0 = silc_pol ? silc_pol->bypassedAccesses() : 0;
    const silc::stats::Distribution fm_hist0 =
        sys.fm().readDelayHistogram();
    const uint64_t fmdb0 = sys.fm().demandBytes();
    const silc::dram::DramSystem *nm = sys.nm();
    std::unique_ptr<silc::stats::Distribution> nm_hist0;
    const uint64_t nmdb0 = nm != nullptr ? nm->demandBytes() : 0;
    if (nm != nullptr) {
        nm_hist0 = std::make_unique<silc::stats::Distribution>(
            nm->readDelayHistogram());
    }

    sys.setPerCoreBudget(scfg.warmup + scfg.window);
    if (!loop.runToBudget())
        silc::fatal("sampling: measurement window hit the tick limit");
    const Tick t_1 = loop.cycle();

    silc::sample::WindowSample s;
    s.index = index;
    s.instructions = scfg.window * cfg.cores;
    s.ticks = t_1 > t_0 ? t_1 - t_0 : 1;
    s.ipc = static_cast<double>(scfg.window) / static_cast<double>(s.ticks);
    const uint64_t dmiss = h.llcMisses() - miss0;
    s.mpki = 1000.0 * static_cast<double>(dmiss) /
        static_cast<double>(s.instructions);
    const uint64_t ddone = h.missesCompleted() - done0;
    s.avg_miss_latency = ddone == 0
        ? 0.0
        : (h.missLatencySum() - lat0) / static_cast<double>(ddone);
    const uint64_t dnm = pol.nmServiced() - nm0;
    const uint64_t dfm = pol.fmServiced() - fm0;
    s.access_rate = dnm + dfm == 0
        ? 0.0
        : static_cast<double>(dnm) / static_cast<double>(dnm + dfm);
    if (silc_pol != nullptr) {
        s.swaps_per_kilo = 1000.0 *
            static_cast<double>(silc_pol->subblockSwaps() - swaps0) /
            static_cast<double>(s.instructions);
        s.bypass_per_kilo = 1000.0 *
            static_cast<double>(silc_pol->bypassedAccesses() - bypass0) /
            static_cast<double>(s.instructions);
    }
    const silc::stats::Distribution fm_delta =
        sys.fm().readDelayHistogram().minus(fm_hist0);
    s.fm_read_p50 = fm_delta.percentile(0.50);
    s.fm_read_p95 = fm_delta.percentile(0.95);
    if (nm != nullptr) {
        const silc::stats::Distribution nm_delta =
            nm->readDelayHistogram().minus(*nm_hist0);
        s.nm_read_p95 = nm_delta.percentile(0.95);
        s.nm_demand_bytes = nm->demandBytes() - nmdb0;
    }
    s.fm_demand_bytes = sys.fm().demandBytes() - fmdb0;
    const uint64_t db = s.nm_demand_bytes + s.fm_demand_bytes;
    s.nm_demand_fraction = db == 0
        ? 0.0
        : static_cast<double>(s.nm_demand_bytes) / static_cast<double>(db);
    loop.harvest();
    return s;
}

/**
 * Copy of SamplingController::run with every phase spanned: functional
 * warming and checkpoints through the public System hooks, replays
 * through tracedReplay, then the same aggregation into a SimResult.
 */
SimResult
tracedSampled(const SystemConfig &cfg, const SamplingConfig &scfg,
              LayerTotals &layers, PoolTimes &pool, SampleTotals &st)
{
    scfg.validate();
    if (scfg.ci_target != 0.0)
        silc::fatal("the traced sampled copy replays every checkpoint");

    SystemConfig wcfg = cfg;
    wcfg.sim_threads = 1;
    wcfg.telemetry.enabled = false;
    Clock::time_point t0 = Clock::now();
    System warm(wcfg);
    layers.setup_s += secondsBetween(t0, Clock::now());
    if (!warm.policyRef().supportsSampling()) {
        silc::fatal("policy '%s' does not support checkpointed sampling",
                    warm.policyRef().name());
    }
    warm.setFunctionalMode(true);

    const uint64_t total = cfg.instructions_per_core;
    const uint64_t n_ckpt = std::max<uint64_t>(1, total / scfg.period);
    std::vector<std::vector<uint8_t>> blobs;
    blobs.reserve(n_ckpt);
    for (uint64_t k = 0; k < n_ckpt; ++k) {
        warm.setPerCoreBudget(k * scfg.period);
        t0 = Clock::now();
        const bool ok = warm.runToBudget();
        st.warm_s += secondsBetween(t0, Clock::now());
        if (!ok)
            silc::fatal("sampling: functional warming hit the tick limit");
        t0 = Clock::now();
        silc::BlobWriter w;
        warm.snapshotState(w);
        blobs.push_back(w.data());
        st.ckpt_s += secondsBetween(t0, Clock::now());
        st.ckpt_bytes += blobs.back().size();
    }
    const uint64_t warmed = (n_ckpt - 1) * scfg.period;
    warm.setPerCoreBudget(total);
    SimResult base = warm.collectResult(true);
    st.warm_instructions = warmed * cfg.cores;
    st.checkpoints = static_cast<uint32_t>(blobs.size());

    std::vector<silc::sample::WindowSample> windows(blobs.size());
    std::vector<LayerTotals> totals(blobs.size());
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < blobs.size(); ++i) {
        tasks.push_back([&, i] {
            windows[i] = tracedReplay(cfg, scfg, blobs[i], i, totals[i]);
        });
    }
    pool = runPool(scfg.threads, std::move(tasks));
    st.replay_s = pool.wall_s;
    st.windows = static_cast<uint32_t>(windows.size());
    for (const LayerTotals &t : totals)
        layers.merge(t);

    silc::sample::StatsAggregator agg;
    for (const auto &s : windows)
        agg.add(s);
    auto report = std::make_shared<silc::sample::SamplingReport>();
    report->period = scfg.period;
    report->window = scfg.window;
    report->warmup = scfg.warmup;
    report->checkpoints = st.checkpoints;
    report->windows = st.windows;
    report->early_stopped = false;
    report->warm_instructions = warmed;
    report->metrics = agg.estimates();

    SimResult r = base;
    r.hit_tick_limit = false;
    const silc::sample::MetricEstimate *ipc = report->find("ipc");
    if (ipc != nullptr && ipc->mean > 0.0) {
        r.ipc = ipc->mean;
        r.ticks = static_cast<Tick>(static_cast<double>(r.instructions) /
                                    (static_cast<double>(r.cores) * r.ipc));
        if (r.ticks == 0)
            r.ticks = 1;
    }
    const silc::sample::MetricEstimate *mpki = report->find("mpki");
    if (mpki != nullptr) {
        r.mpki = mpki->mean;
        r.llc_misses = static_cast<uint64_t>(
            r.mpki * static_cast<double>(r.instructions) / 1000.0);
    }
    r.avg_miss_latency = report->find("avg_miss_latency")->mean;
    r.access_rate = report->find("access_rate")->mean;
    uint64_t win_nm = 0;
    uint64_t win_fm = 0;
    uint64_t win_instr = 0;
    for (const auto &s : agg.samples()) {
        win_nm += s.nm_demand_bytes;
        win_fm += s.fm_demand_bytes;
        win_instr += s.instructions;
    }
    if (win_instr > 0) {
        const double scale = static_cast<double>(r.instructions) /
            static_cast<double>(win_instr);
        r.nm_demand_bytes =
            static_cast<uint64_t>(static_cast<double>(win_nm) * scale);
        r.fm_demand_bytes =
            static_cast<uint64_t>(static_cast<double>(win_fm) * scale);
    }
    r.sampling = report;
    return r;
}

template <typename T>
std::string
show(const T &v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

} // namespace

// ---- Workload catalogue ------------------------------------------------

Workload
parseWorkload(const std::string &name)
{
    if (name == "matrix")
        return Workload::Matrix;
    if (name == "stream_bw")
        return Workload::StreamBw;
    if (name == "sampled_mcf")
        return Workload::SampledMcf;
    silc::fatal("unknown workload '%s' (matrix, stream_bw, sampled_mcf)",
                name.c_str());
}

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::Matrix:
        return "matrix";
      case Workload::StreamBw:
        return "stream_bw";
      case Workload::SampledMcf:
        return "sampled_mcf";
    }
    return "?";
}

unsigned
poolWidth(Workload w)
{
    // Two workers, not one per CPU: on a shared 4-CPU host a 4-wide
    // pool measured the neighbours as much as the simulator.
    const unsigned fixed = w == Workload::StreamBw ? 1 : 2;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(fixed, hw);
}

std::vector<SystemConfig>
setupConfigs(const Params &p)
{
    std::vector<SystemConfig> out;
    switch (p.workload) {
      case Workload::Matrix: {
        const ExperimentOptions o = matrixOptions(p);
        for (const auto &[w, s] : matrixJobs())
            out.push_back(silc::sim::makeConfig(w, s, o));
        break;
      }
      case Workload::StreamBw:
        out.push_back(streamConfig(p));
        break;
      case Workload::SampledMcf: {
        // The warming System plus one replay System per checkpoint.
        const SystemConfig cfg = sampledConfig(p);
        const SamplingConfig s = samplingConfig(p);
        out.push_back(cfg);
        SystemConfig rcfg = cfg;
        rcfg.instructions_per_core = s.warmup;
        const uint64_t n = std::max<uint64_t>(
            1, cfg.instructions_per_core / s.period);
        for (uint64_t k = 0; k < n; ++k)
            out.push_back(rcfg);
        break;
      }
    }
    return out;
}

RunOutput
runWorkload(const Params &p)
{
    RunOutput out;
    const Clock::time_point t0 = Clock::now();
    switch (p.workload) {
      case Workload::Matrix: {
        silc::sim::ParallelRunner runner(matrixOptions(p),
                                         poolWidth(p.workload));
        std::vector<silc::sim::ParallelRunner::Job> jobs;
        for (const auto &[w, s] : matrixJobs())
            jobs.push_back(runner.submit(w, s));
        for (auto &j : jobs)
            out.results.push_back(j.get());
        break;
      }
      case Workload::StreamBw: {
        System sys(streamConfig(p));
        out.results.push_back(sys.run());
        break;
      }
      case Workload::SampledMcf: {
        silc::sample::SamplingController ctl(sampledConfig(p),
                                             samplingConfig(p));
        out.results.push_back(ctl.run());
        break;
      }
    }
    out.wall_s = secondsBetween(t0, Clock::now());
    out.jobs = out.results.size();
    return out;
}

double
simInstructions(const RunOutput &out)
{
    double n = 0.0;
    for (const SimResult &r : out.results)
        n += static_cast<double>(r.instructions);
    return n;
}

double
simTicks(const RunOutput &out)
{
    double n = 0.0;
    for (const SimResult &r : out.results)
        n += static_cast<double>(r.ticks);
    return n;
}

std::string
checkBudgets(const Params &p, const RunOutput &out)
{
    const size_t expected =
        p.workload == Workload::Matrix ? matrixJobs().size() : 1;
    if (out.results.size() != expected) {
        return "expected " + show(expected) + " results, got " +
            show(out.results.size());
    }
    for (const SimResult &r : out.results) {
        if (r.hit_tick_limit)
            return r.workload + "/" + r.scheme + " hit max_ticks";
        if (p.workload == Workload::SampledMcf &&
            (r.sampling == nullptr ||
             r.sampling->windows != r.sampling->checkpoints)) {
            return "sampled run did not replay every checkpoint";
        }
    }
    return "";
}

std::vector<std::pair<std::string, double>>
modelOutputs(const Params &p, const RunOutput &out)
{
    std::vector<std::pair<std::string, double>> v;
    switch (p.workload) {
      case Workload::Matrix: {
        // Same figure of merit as fig7: baseline ticks / scheme ticks,
        // geometric mean over the 14 profiles; silcfm is last.
        const auto &reg = silc::policy::SchemeRegistry::instance();
        const std::vector<std::string> schemes = reg.matrixNames();
        const size_t row = schemes.size() + 1;
        std::vector<std::vector<double>> cols(schemes.size());
        for (size_t base = 0; base + row <= out.results.size();
             base += row) {
            const double bt =
                static_cast<double>(out.results[base].ticks);
            for (size_t i = 0; i < schemes.size(); ++i) {
                cols[i].push_back(
                    bt / static_cast<double>(out.results[base + 1 + i].ticks));
            }
        }
        double best_other = 0.0;
        for (size_t i = 0; i + 1 < cols.size(); ++i)
            best_other = std::max(best_other, silc::sim::geomean(cols[i]));
        const double silc = silc::sim::geomean(cols.back());
        v.emplace_back("silcfm_speedup_geomean", silc);
        v.emplace_back("silcfm_vs_best_alternative", silc / best_other - 1.0);
        break;
      }
      case Workload::StreamBw:
        v.emplace_back("sim_ipc", out.results[0].ipc);
        v.emplace_back("silcfm_nm_share", out.results[0].nmDemandFraction());
        break;
      case Workload::SampledMcf:
        v.emplace_back("sim_ipc", out.results[0].ipc);
        break;
    }
    return v;
}

std::string
diffResults(const SimResult &a, const SimResult &b)
{
#define PERFBENCH_CMP(field)                                             \
    if (!(a.field == b.field))                                           \
        return std::string(#field) + ": " + show(a.field) + " != " +     \
            show(b.field);
    PERFBENCH_CMP(workload)
    PERFBENCH_CMP(cores)
    PERFBENCH_CMP(instructions)
    PERFBENCH_CMP(ticks)
    PERFBENCH_CMP(hit_tick_limit)
    PERFBENCH_CMP(ipc)
    PERFBENCH_CMP(llc_misses)
    PERFBENCH_CMP(mpki)
    PERFBENCH_CMP(footprint_pages)
    PERFBENCH_CMP(access_rate)
    PERFBENCH_CMP(avg_miss_latency)
    PERFBENCH_CMP(nm_demand_bytes)
    PERFBENCH_CMP(fm_demand_bytes)
    PERFBENCH_CMP(nm_total_bytes)
    PERFBENCH_CMP(fm_total_bytes)
    PERFBENCH_CMP(migration_bytes)
    PERFBENCH_CMP(metadata_bytes)
    PERFBENCH_CMP(nm_row_hit_rate)
    PERFBENCH_CMP(fm_row_hit_rate)
    PERFBENCH_CMP(nm_bus_utilization)
    PERFBENCH_CMP(fm_bus_utilization)
    PERFBENCH_CMP(nm_avg_read_queue_ticks)
    PERFBENCH_CMP(fm_avg_read_queue_ticks)
    PERFBENCH_CMP(energy_nm_j)
    PERFBENCH_CMP(energy_fm_j)
    PERFBENCH_CMP(energy_total_j)
    PERFBENCH_CMP(edp)
#undef PERFBENCH_CMP
    if ((a.sampling == nullptr) != (b.sampling == nullptr))
        return "sampling report present on one side only";
    if (a.sampling != nullptr) {
        const silc::sample::SamplingReport &x = *a.sampling;
        const silc::sample::SamplingReport &y = *b.sampling;
        if (x.checkpoints != y.checkpoints) {
            return "sampling.checkpoints: " + show(x.checkpoints) +
                " != " + show(y.checkpoints);
        }
        if (x.windows != y.windows || x.period != y.period ||
            x.window != y.window || x.warmup != y.warmup ||
            x.early_stopped != y.early_stopped ||
            x.warm_instructions != y.warm_instructions ||
            x.metrics.size() != y.metrics.size()) {
            return "sampling report shape differs";
        }
        for (size_t i = 0; i < x.metrics.size(); ++i) {
            const auto &m = x.metrics[i];
            const auto &n = y.metrics[i];
            if (m.name != n.name || m.mean != n.mean ||
                m.ci_half != n.ci_half || m.n != n.n) {
                return "sampling." + m.name + ": " + show(m.mean) +
                    " != " + show(n.mean);
            }
        }
    }
    return "";
}

// ---- Traced run --------------------------------------------------------

TraceOutput
traceWorkload(const Params &p)
{
    registerTracedSchemes();
    TraceOutput out;
    const Clock::time_point t0 = Clock::now();
    switch (p.workload) {
      case Workload::Matrix: {
        const ExperimentOptions o = matrixOptions(p);
        const auto jobs = matrixJobs();
        out.run.results.resize(jobs.size());
        std::vector<LayerTotals> totals(jobs.size());
        std::vector<std::function<void()>> tasks;
        for (size_t i = 0; i < jobs.size(); ++i) {
            tasks.push_back([&, i] {
                const SystemConfig cfg = silc::sim::makeConfig(
                    jobs[i].first, tracedScheme(jobs[i].second), o);
                out.run.results[i] = tracedRun(cfg, totals[i], i);
            });
        }
        out.pool = runPool(poolWidth(p.workload), std::move(tasks));
        for (const LayerTotals &t : totals)
            out.layers.merge(t);
        break;
      }
      case Workload::StreamBw: {
        SystemConfig cfg = streamConfig(p);
        cfg.scheme = tracedScheme(cfg.scheme);
        const Clock::time_point j0 = Clock::now();
        out.run.results.push_back(tracedRun(cfg, out.layers, 0));
        out.pool.threads = 1;
        out.pool.job_s.push_back(secondsBetween(j0, Clock::now()));
        out.pool.wall_s = out.pool.job_s.back();
        break;
      }
      case Workload::SampledMcf:
        out.run.results.push_back(tracedSampled(sampledConfig(p),
                                                samplingConfig(p),
                                                out.layers, out.pool,
                                                out.sample));
        break;
    }
    out.run.wall_s = secondsBetween(t0, Clock::now());
    out.run.jobs = out.run.results.size();
    return out;
}

SampleTotals
sampleProbe(const Params &p, std::string &error)
{
    registerTracedSchemes();
    const auto [cfg, scfg] = sampleSetup(p);
    const SimResult expected =
        silc::sample::SamplingController(cfg, scfg).run();
    LayerTotals layers;
    PoolTimes pool;
    SampleTotals st;
    const SimResult got = tracedSampled(cfg, scfg, layers, pool, st);
    const std::string diff = diffResults(expected, got);
    if (!diff.empty())
        error = "sample probe differs from SamplingController: " + diff;
    return st;
}

// ---- Standalone probes -------------------------------------------------

double
traceProbeNsPerInstr(const Params &p)
{
    const std::vector<std::string> profiles = workloadProfiles(p);
    const uint64_t per_profile =
        (tiny(p) ? 50'000 : 4'000'000) / profiles.size();
    uint64_t sink = 0;
    double ns = 0.0;
    for (const std::string &name : profiles) {
        silc::trace::SyntheticGenerator gen(
            silc::trace::findProfile(name), generatorSeed(p));
        for (uint64_t i = 0; i < per_profile / 4; ++i)
            sink += gen.next().vaddr;
        const Clock::time_point t0 = Clock::now();
        for (uint64_t i = 0; i < per_profile; ++i)
            sink += gen.next().vaddr;
        ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
    }
    // Keep the generated stream observable so the loop is not elided.
    if (sink == 1)
        silc::inform("trace probe checksum %llu",
                     static_cast<unsigned long long>(sink));
    return ns / static_cast<double>(per_profile * profiles.size());
}

double
cacheProbeNsPerAccess(const Params &p)
{
    struct Access
    {
        silc::Addr addr;
        bool is_write;
    };
    const std::vector<std::string> profiles = workloadProfiles(p);
    const size_t per_profile =
        (tiny(p) ? 20'000 : 2'000'000) / profiles.size();
    std::vector<Access> stream;
    stream.reserve(per_profile * profiles.size());
    for (const std::string &name : profiles) {
        silc::trace::SyntheticGenerator gen(
            silc::trace::findProfile(name), generatorSeed(p));
        size_t n = 0;
        while (n < per_profile) {
            const silc::trace::TraceInstruction in = gen.next();
            if (!in.is_mem)
                continue;
            stream.push_back({in.vaddr, in.is_write});
            ++n;
        }
    }

    const SystemConfig d = SystemConfig::defaults();
    silc::cache::Cache l1d(d.l1d);
    silc::cache::Cache l2(d.l2);
    uint64_t hits = 0;
    auto pass = [&] {
        for (const Access &a : stream) {
            if (l1d.access(a.addr, a.is_write).hit)
                ++hits;
            else
                hits += l2.access(a.addr, a.is_write).hit;
        }
    };
    pass(); // warm: fill both levels
    std::vector<double> per_access;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point t0 = Clock::now();
        pass();
        per_access.push_back(
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count() /
            static_cast<double>(stream.size()));
    }
    if (hits == 0)
        silc::inform("cache probe saw no hits");
    std::sort(per_access.begin(), per_access.end());
    return per_access[per_access.size() / 2];
}

// ---- Oracle-checked runs -----------------------------------------------

uint64_t
runChecks(const Params &p, std::string &error)
{
    RunOutput out;
    switch (p.workload) {
      case Workload::Matrix: {
        ExperimentOptions o = matrixOptions(p);
        o.check = true;
        o.instructions_per_core = tiny(p) ? 2'000 : 10'000;
        silc::sim::ParallelRunner runner(o, poolWidth(p.workload));
        std::vector<silc::sim::ParallelRunner::Job> jobs;
        for (const auto &[w, s] : matrixJobs())
            jobs.push_back(runner.submit(w, s));
        for (auto &j : jobs)
            out.results.push_back(j.get());
        break;
      }
      case Workload::StreamBw: {
        SystemConfig cfg = streamConfig(p);
        cfg.check = true;
        cfg.instructions_per_core = tiny(p) ? 4'000 : 20'000;
        System sys(cfg);
        out.results.push_back(sys.run());
        break;
      }
      case Workload::SampledMcf: {
        SystemConfig cfg = sampledConfig(p);
        cfg.check = true;
        cfg.instructions_per_core = tiny(p) ? 40'000 : 100'000;
        SamplingConfig s = samplingConfig(p);
        s.period = 20'000;
        s.window = 2'000;
        s.warmup = 2'000;
        out.results.push_back(
            silc::sample::SamplingController(cfg, s).run());
        break;
      }
    }
    error = checkBudgets(p, out);
    return out.results.size();
}

} // namespace perfbench
