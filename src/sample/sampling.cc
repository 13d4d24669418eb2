#include "sample/sampling.hh"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <deque>
#include <future>
#include <memory>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "core/silc_fm.hh"
#include "dram/dram_system.hh"
#include "sim/parallel.hh"

namespace silc {
namespace sample {

namespace {

/** The metrics a window sample exposes to aggregation, ipc first. */
struct MetricDef
{
    const char *name;
    double WindowSample::*field;
};

constexpr MetricDef kMetricDefs[] = {
    {"ipc", &WindowSample::ipc},
    {"mpki", &WindowSample::mpki},
    {"avg_miss_latency", &WindowSample::avg_miss_latency},
    {"access_rate", &WindowSample::access_rate},
    {"swaps_per_kilo", &WindowSample::swaps_per_kilo},
    {"bypass_per_kilo", &WindowSample::bypass_per_kilo},
    {"fm_read_p50", &WindowSample::fm_read_p50},
    {"fm_read_p95", &WindowSample::fm_read_p95},
    {"nm_read_p95", &WindowSample::nm_read_p95},
    {"nm_demand_fraction", &WindowSample::nm_demand_fraction},
};

MetricEstimate
estimateOf(const std::vector<WindowSample> &samples, const MetricDef &def)
{
    MetricEstimate e;
    e.name = def.name;
    e.n = static_cast<uint32_t>(samples.size());
    if (samples.empty())
        return e;

    double sum = 0.0;
    for (const auto &s : samples)
        sum += s.*def.field;
    e.mean = sum / static_cast<double>(samples.size());

    if (samples.size() < 2)
        return e;
    double ss = 0.0;
    for (const auto &s : samples) {
        const double d = s.*def.field - e.mean;
        ss += d * d;
    }
    const double n = static_cast<double>(samples.size());
    const double var = ss / (n - 1.0);
    e.ci_half = StatsAggregator::tCritical95(
                    static_cast<uint32_t>(samples.size() - 1)) *
        std::sqrt(var / n);
    return e;
}

} // namespace

// ---- SamplingConfig ----------------------------------------------------

SamplingConfig
SamplingConfig::fromEnv()
{
    SamplingConfig c;
    c.period = knobs::count("SILC_SAMPLE_PERIOD", c.period);
    c.window = knobs::count("SILC_SAMPLE_WINDOW", c.window);
    c.warmup = knobs::count("SILC_SAMPLE_WARMUP", c.warmup);
    c.min_windows = static_cast<uint32_t>(
        knobs::count("SILC_SAMPLE_MIN_WINDOWS", c.min_windows));
    c.ci_target = knobs::fraction("SILC_SAMPLE_CI_TARGET", c.ci_target);
    return c;
}

void
SamplingConfig::validate() const
{
    if (period == 0 || window == 0 || warmup == 0)
        fatal("sampling: period, window and warmup must be positive");
    if (warmup + window > period) {
        fatal("sampling: warmup (%" PRIu64 ") + window (%" PRIu64 ") "
              "must fit within the period (%" PRIu64 ") so measurement "
              "windows cannot overlap",
              warmup, window, period);
    }
    if (min_windows == 0)
        fatal("sampling: min_windows must be positive");
    if (ci_target < 0.0)
        fatal("sampling: ci_target must be non-negative");
}

// ---- SamplingReport ----------------------------------------------------

const MetricEstimate *
SamplingReport::find(const std::string &name) const
{
    for (const auto &m : metrics) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

// ---- StatsAggregator ---------------------------------------------------

double
StatsAggregator::tCritical95(uint32_t df)
{
    // Two-sided 95% Student's t critical values; beyond df=30 the
    // normal approximation is within 0.3%.
    static const double kTable[] = {
        0.0,    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
        2.306,  2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
        2.120,  2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
        2.064,  2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= 30)
        return kTable[df];
    return 1.96;
}

std::vector<MetricEstimate>
StatsAggregator::estimates() const
{
    std::vector<MetricEstimate> out;
    out.reserve(std::size(kMetricDefs));
    for (const auto &def : kMetricDefs)
        out.push_back(estimateOf(samples_, def));
    return out;
}

MetricEstimate
StatsAggregator::estimate(const std::string &name) const
{
    for (const auto &def : kMetricDefs) {
        if (name == def.name)
            return estimateOf(samples_, def);
    }
    fatal("StatsAggregator: unknown metric '%s'", name.c_str());
}

// ---- SamplingController ------------------------------------------------

SamplingController::SamplingController(sim::SystemConfig cfg,
                                       SamplingConfig scfg)
    : cfg_(std::move(cfg)), scfg_(scfg)
{
}

WindowSample
SamplingController::replayWindow(std::vector<uint8_t> blob,
                                 uint64_t index) const
{
    sim::SystemConfig rcfg = cfg_;
    rcfg.telemetry.enabled = false;
    rcfg.check = false;            // the oracle already ran in warming
    // Core retire counters restart at zero after a restore (they are
    // not checkpointed — at a pause point the ROB is empty), so budgets
    // count instructions since the checkpoint.
    rcfg.instructions_per_core = scfg_.warmup;

    sim::System sys(rcfg);
    {
        BlobReader reader(blob);
        sys.restoreState(reader);
    }
    std::vector<uint8_t>().swap(blob); // restored: free it for the window

    // Detailed warmup: re-populates MSHR/DRAM/row-buffer timing state
    // from the checkpoint's architectural state; measurements discard it.
    if (!sys.runToBudget())
        fatal("sampling: detailed warmup hit the tick limit");

    const Tick t0 = sys.currentCycle();
    const sim::MemoryHierarchy &h = sys.hierarchy();
    const uint64_t miss0 = h.llcMisses();
    const double lat0 = h.missLatencySum();
    const uint64_t done0 = h.missesCompleted();
    policy::FlatMemoryPolicy &pol = sys.policyRef();
    const uint64_t nm0 = pol.nmServiced();
    const uint64_t fm0 = pol.fmServiced();
    const auto *silc = dynamic_cast<const core::SilcFmPolicy *>(&pol);
    const uint64_t swaps0 = silc ? silc->subblockSwaps() : 0;
    const uint64_t bypass0 = silc ? silc->bypassedAccesses() : 0;
    const stats::Distribution fm_hist0 = sys.fm().readDelayHistogram();
    const uint64_t fmdb0 = sys.fm().demandBytes();
    const dram::DramSystem *nm = sys.nm();
    std::unique_ptr<stats::Distribution> nm_hist0;
    const uint64_t nmdb0 = nm != nullptr ? nm->demandBytes() : 0;
    if (nm != nullptr) {
        nm_hist0 =
            std::make_unique<stats::Distribution>(nm->readDelayHistogram());
    }

    sys.setPerCoreBudget(scfg_.warmup + scfg_.window);
    if (!sys.runToBudget())
        fatal("sampling: measurement window hit the tick limit");
    const Tick t1 = sys.currentCycle();

    WindowSample s;
    s.index = index;
    s.instructions = scfg_.window * cfg_.cores;
    s.ticks = t1 > t0 ? t1 - t0 : 1;
    s.ipc = static_cast<double>(scfg_.window) /
        static_cast<double>(s.ticks);
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
    if (silc != nullptr) {
        s.swaps_per_kilo =
            1000.0 * static_cast<double>(silc->subblockSwaps() - swaps0) /
            static_cast<double>(s.instructions);
        s.bypass_per_kilo = 1000.0 *
            static_cast<double>(silc->bypassedAccesses() - bypass0) /
            static_cast<double>(s.instructions);
    }
    const stats::Distribution fm_delta =
        sys.fm().readDelayHistogram().minus(fm_hist0);
    s.fm_read_p50 = fm_delta.percentile(0.50);
    s.fm_read_p95 = fm_delta.percentile(0.95);
    if (nm != nullptr) {
        const stats::Distribution nm_delta =
            nm->readDelayHistogram().minus(*nm_hist0);
        s.nm_read_p95 = nm_delta.percentile(0.95);
        s.nm_demand_bytes = nm->demandBytes() - nmdb0;
    }
    s.fm_demand_bytes = sys.fm().demandBytes() - fmdb0;
    const uint64_t db = s.nm_demand_bytes + s.fm_demand_bytes;
    s.nm_demand_fraction = db == 0
        ? 0.0
        : static_cast<double>(s.nm_demand_bytes) /
            static_cast<double>(db);
    return s;
}

sim::SystemConfig
SamplingController::warmingConfig() const
{
    sim::SystemConfig wcfg = cfg_;
    wcfg.telemetry.enabled = false;
    return wcfg;
}

sim::SimResult
SamplingController::run()
{
    sim::System warm(warmingConfig());
    if (!warm.policyRef().supportsSampling()) {
        fatal("policy '%s' does not support checkpointed sampling",
              warm.policyRef().name());
    }
    return run(warm);
}

sim::SimResult
SamplingController::run(sim::System &warm)
{
    scfg_.validate();
    warm.setFunctionalMode(true);

    const uint64_t total = cfg_.instructions_per_core;
    const uint64_t n_ckpt = std::max<uint64_t>(1, total / scfg_.period);

    // Windows at or past the early-stop cut are never measured; replay
    // tasks read it when they start, so those already queued return
    // without restoring.  Declared before the pool, whose destructor
    // drains those tasks.
    std::atomic<uint64_t> cut{n_ckpt};
    StatsAggregator agg;
    bool early = false;
    // Checkpoint order; front() is the oldest window not yet collected.
    std::deque<std::future<WindowSample>> pending;

    sim::ThreadPool pool(scfg_.threads);
    // At most threads + 1 checkpoints are alive at once: one per
    // worker plus the one being queued, so peak memory does not grow
    // with the campaign length.
    const size_t max_in_flight = pool.threads() + 1;

    // Collects the oldest pending window.  Fixed-size batches keep
    // early stopping deterministic across pool widths: windows enter
    // the aggregator in checkpoint order and the CI test runs only at
    // batch boundaries.
    constexpr size_t kBatch = 4;
    const auto collect = [&] {
        agg.add(pending.front().get());
        pending.pop_front();
        const size_t n = agg.windows();
        if (scfg_.ci_target > 0.0 && n % kBatch == 0 &&
            n >= scfg_.min_windows && n < n_ckpt) {
            const MetricEstimate e = agg.estimate("ipc");
            if (e.mean > 0.0 && e.ci_half / e.mean <= scfg_.ci_target) {
                early = true;
                cut.store(n);
            }
        }
    };

    // Functional warming runs sequentially on this thread.  Each
    // checkpoint goes straight to a replay task that owns its blob, so
    // replays overlap the rest of the warming.  After an early stop
    // warming still reaches the last checkpoint position (the base
    // result's footprint and workload size do not depend on the cut),
    // but takes no more checkpoints.
    for (uint64_t k = 0; k < n_ckpt; ++k) {
        warm.setPerCoreBudget(k * scfg_.period);
        if (!warm.runToBudget())
            fatal("sampling: functional warming hit the tick limit");
        if (!early && pending.size() == max_in_flight)
            collect();
        if (early)
            continue;
        BlobWriter w;
        warm.snapshotState(w);
        auto task = std::make_shared<std::packaged_task<WindowSample()>>(
            [this, &cut, k, blob = std::move(w).take()]() mutable {
                if (k >= cut.load())
                    return WindowSample{};
                return replayWindow(std::move(blob), k);
            });
        pending.push_back(task->get_future());
        pool.submit([task] { (*task)(); });
    }
    // The stream past the last checkpoint feeds no replay window, so
    // executing it buys nothing measurable — skip it unless the
    // differential oracle is on (SILC_CHECK verifies the whole stream).
    // The budget is still raised to the nominal total so the base
    // result reports the workload size the estimates stand for;
    // footprint/occupancy diagnostics then cover the warmed prefix.
    uint64_t warmed = (n_ckpt - 1) * scfg_.period;
    warm.setPerCoreBudget(total);
    if (cfg_.check) {
        if (!warm.runToBudget())
            fatal("sampling: functional warming hit the tick limit");
        warmed = total;
    }
    sim::SimResult base = warm.collectResult(true);

    while (!early && !pending.empty())
        collect();

    // Aggregate into a SimResult + report.
    auto report = std::make_shared<SamplingReport>();
    report->period = scfg_.period;
    report->window = scfg_.window;
    report->warmup = scfg_.warmup;
    report->checkpoints = static_cast<uint32_t>(n_ckpt);
    report->windows = static_cast<uint32_t>(agg.windows());
    report->early_stopped = early;
    report->warm_instructions = warmed;
    report->metrics = agg.estimates();

    sim::SimResult r = base;
    r.hit_tick_limit = false;
    const MetricEstimate *ipc = report->find("ipc");
    if (ipc != nullptr && ipc->mean > 0.0) {
        r.ipc = ipc->mean;
        r.ticks = static_cast<Tick>(
            static_cast<double>(r.instructions) /
            (static_cast<double>(r.cores) * r.ipc));
        if (r.ticks == 0)
            r.ticks = 1;
    }
    const MetricEstimate *mpki = report->find("mpki");
    if (mpki != nullptr) {
        r.mpki = mpki->mean;
        r.llc_misses = static_cast<uint64_t>(
            r.mpki * static_cast<double>(r.instructions) / 1000.0);
    }
    r.avg_miss_latency = report->find("avg_miss_latency")->mean;
    r.access_rate = report->find("access_rate")->mean;

    // Extrapolate demand-byte totals from the measured windows so
    // nmDemandFraction() (Figure 8) works on sampled results; other
    // traffic classes are not estimated and stay zero.
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

sim::SimResult
runMaybeSampled(const sim::SystemConfig &cfg, const SamplingConfig &scfg)
{
    // One System either way: it warms the sampled run, or runs in full.
    SamplingController ctl(cfg, scfg);
    sim::System sys(ctl.warmingConfig());
    if (!sys.policyRef().supportsSampling()) {
        warn("policy '%s' carries tick-coupled state; running %s in "
             "full detail instead of sampling",
             sys.policyRef().name(), cfg.workload.c_str());
        return sys.run();
    }
    return ctl.run(sys);
}

} // namespace sample
} // namespace silc
