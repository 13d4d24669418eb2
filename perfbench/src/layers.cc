#include "layers.hh"

#include <algorithm>
#include <mutex>
#include <vector>

#include "common/logging.hh"
#include "policy/registry.hh"

namespace perfbench {

using silc::Tick;
using silc::kTickNever;

namespace {

thread_local LayerTotals *g_thread_totals = nullptr;

constexpr const char *kTracedPrefix = "traced.";

/** xorshift64*: picks the sampled loop iterations. */
inline uint64_t
nextRandom(uint64_t &s)
{
    s ^= s >> 12;
    s ^= s << 25;
    s ^= s >> 27;
    return s * 0x2545F4914F6CDD1DULL;
}

/** 1 in 16 loop iterations carries per-layer spans. */
constexpr unsigned kSampleShift = 60;

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

} // namespace

double
clockCostNs()
{
    static const double cost = [] {
        // Median over batches of back-to-back reads.
        constexpr int kBatches = 31;
        constexpr int kReads = 20000;
        std::vector<double> per_read;
        per_read.reserve(kBatches);
        for (int b = 0; b < kBatches; ++b) {
            const Clock::time_point t0 = Clock::now();
            Clock::time_point last = t0;
            for (int i = 0; i < kReads; ++i)
                last = Clock::now();
            per_read.push_back(nsBetween(t0, last) / kReads);
        }
        std::nth_element(per_read.begin(),
                         per_read.begin() + kBatches / 2, per_read.end());
        return per_read[kBatches / 2];
    }();
    return cost;
}

void
LayerTotals::merge(const LayerTotals &o)
{
    setup_s += o.setup_s;
    loop_wall_s += o.loop_wall_s;
    iterations += o.iterations;
    sampled += o.sampled;
    ticks += o.ticks;
    // Span sums are raw sums over sampled iterations; sampling has the
    // same rate everywhere, so the merged spanScale() scales them.
    events_ns += o.events_ns;
    cpu_ns += o.cpu_ns;
    nm_ns += o.nm_ns;
    fm_ns += o.fm_ns;
    ptick_ns += o.ptick_ns;
    self_ns += o.self_ns;
    sampled_iter_ns += o.sampled_iter_ns;
    policy_calls += o.policy_calls;
    policy_timed_calls += o.policy_timed_calls;
    policy_ns += o.policy_ns;
    policy_incl_ns += o.policy_incl_ns;
    events_executed += o.events_executed;
    events_cancelled += o.events_cancelled;
    nm_scans += o.nm_scans;
    fm_scans += o.fm_scans;
    dram_served += o.dram_served;
    nm_row_hits += o.nm_row_hits;
    nm_row_misses += o.nm_row_misses;
    fm_row_hits += o.fm_row_hits;
    fm_row_misses += o.fm_row_misses;
    bg_promotions += o.bg_promotions;
    core_cycles += o.core_cycles;
    mem_stall_cycles += o.mem_stall_cycles;
    rob_full_cycles += o.rob_full_cycles;
    l1d_hits += o.l1d_hits;
    l1d_misses += o.l1d_misses;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    mshr_rejections += o.mshr_rejections;
    mshr_coalesced += o.mshr_coalesced;
    nm_serviced += o.nm_serviced;
    demand_requests += o.demand_requests;
    migrations += o.migrations;
}

double
LayerTotals::untracedLoopSeconds() const
{
    const uint64_t unsampled = iterations - sampled;
    if (unsampled == 0)
        return sampled_iter_ns * 1e-9;
    return (loop_wall_s - sampled_iter_ns * 1e-9) *
        static_cast<double>(iterations) / static_cast<double>(unsampled);
}

double
LayerTotals::spanScale() const
{
    const double sum =
        events_ns + cpu_ns + nm_ns + fm_ns + ptick_ns + self_ns + policy_ns;
    return sum <= 0.0 ? 0.0 : untracedLoopSeconds() / sum;
}

void
setThreadTotals(LayerTotals *totals)
{
    g_thread_totals = totals;
}

std::string
tracedScheme(const std::string &scheme)
{
    return kTracedPrefix +
        silc::policy::SchemeRegistry::instance().resolve(scheme).name;
}

void
registerTracedSchemes()
{
    static std::once_flag once;
    std::call_once(once, [] {
        auto &reg = silc::policy::SchemeRegistry::instance();
        for (const std::string &name : reg.names()) {
            const silc::policy::SchemeInfo &info = reg.resolve(name);
            silc::policy::SchemeTraits t = info.traits;
            t.description = "benchmark span wrapper";
            t.baseline = false;
            t.in_matrix = false;
            // The oracle downcasts the policy; traced runs never check.
            t.has_reference_oracle = false;
            silc::policy::SchemeFactory inner = info.factory;
            reg.registerScheme(
                kTracedPrefix + name, t,
                [inner](const silc::policy::SchemeConfig &cfg,
                        silc::policy::PolicyEnv env) {
                    return std::unique_ptr<silc::policy::FlatMemoryPolicy>(
                        new TracedPolicy(inner(cfg, env), env,
                                         g_thread_totals));
                });
        }
    });
}

// ---- TracedPolicy ------------------------------------------------------

TracedPolicy::TracedPolicy(
    std::unique_ptr<silc::policy::FlatMemoryPolicy> inner,
    silc::policy::PolicyEnv env, LayerTotals *totals)
    : FlatMemoryPolicy(env), inner_(std::move(inner)), totals_(totals),
      clock_ns_(clockCostNs())
{
}

void
TracedPolicy::sync()
{
    inner_->setFunctionalMode(functionalMode());
    nm_serviced_ = inner_->nmServiced();
    fm_serviced_ = inner_->fmServiced();
    migration_ops_ = inner_->migrationOps();
}

template <typename Call>
void
TracedPolicy::forward(Call &&call)
{
    inner_->setFunctionalMode(functionalMode());
    if (totals_ != nullptr)
        ++totals_->policy_calls;
    if (totals_ == nullptr || !totals_->timing) {
        call();
        sync();
        return;
    }
    const Clock::time_point t0 = Clock::now();
    call();
    const double dt = nsBetween(t0, Clock::now());
    ++totals_->policy_timed_calls;
    totals_->policy_ns += dt - clock_ns_;
    totals_->policy_incl_ns += dt + clock_ns_;
    sync();
}

void
TracedPolicy::demandAccess(silc::Addr paddr, bool is_write,
                           silc::CoreId core, silc::Addr pc,
                           silc::policy::DemandCallback done, Tick now)
{
    forward([&] {
        inner_->demandAccess(paddr, is_write, core, pc, std::move(done),
                             now);
    });
}

void
TracedPolicy::writeback(silc::Addr paddr, silc::CoreId core, Tick now)
{
    forward([&] { inner_->writeback(paddr, core, now); });
}

void
TracedPolicy::tick(Tick now)
{
    inner_->setFunctionalMode(functionalMode());
    inner_->tick(now);
    sync();
}

void
TracedPolicy::restoreState(silc::BlobReader &r)
{
    inner_->restoreState(r);
    sync();
}

// ---- TracedLoop --------------------------------------------------------

TracedLoop::TracedLoop(silc::sim::System &sys, LayerTotals &totals,
                       uint64_t sample_seed)
    : sys_(sys), t_(totals),
      policy_(dynamic_cast<TracedPolicy *>(&sys.policyRef())),
      rng_(sample_seed | 1),
      events_executed0_(sys.events().executed()),
      events_cancelled0_(sys.events().cancelled()),
      nm_serviced0_(sys.policyRef().nmServiced()),
      demand0_(sys.policyRef().demandRequests()),
      migrations0_(sys.policyRef().migrationOps())
{
    if (policy_ == nullptr)
        silc::fatal("TracedLoop needs a System built with a traced scheme");
}

bool
TracedLoop::runToBudget()
{
    const silc::sim::SystemConfig &cfg = sys_.config();
    const uint32_t ncores = cfg.cores;
    silc::EventQueue &events = sys_.events();
    silc::dram::DramSystem *nm = sys_.nm();
    silc::dram::DramSystem &fm = sys_.fm();
    silc::policy::FlatMemoryPolicy &pol = sys_.policyRef();
    const double c = clockCostNs();

    uint64_t iterations = 0;
    uint64_t sampled = 0;
    uint64_t nm_scans = 0;
    uint64_t fm_scans = 0;
    const Tick start_cycle = cycle_;
    const Clock::time_point loop0 = Clock::now();

    bool all_done = false;
    while (cycle_ < cfg.max_ticks) {
        const Tick cycle = cycle_;
        ++iterations;
        const bool timed = (nextRandom(rng_) >> kSampleShift) == 0;
        t_.timing = timed;
        Clock::time_point s0, s1, s2, s3, s4, s5;
        double p0 = 0.0, p1 = 0.0, p2 = 0.0;
        if (timed) {
            ++sampled;
            p0 = t_.policy_incl_ns;
            s0 = Clock::now();
        }

        events.runDue(cycle);
        if (timed) {
            s1 = Clock::now();
            p1 = t_.policy_incl_ns;
        }

        all_done = true;
        for (uint32_t i = 0; i < ncores; ++i) {
            silc::cpu::Core &core = sys_.core(i);
            core.tick(cycle);
            all_done &= core.done();
        }
        if (timed) {
            s2 = Clock::now();
            p2 = t_.policy_incl_ns;
        }

        if (nm != nullptr) {
            if (cycle >= nm->nextWakeTick())
                ++nm_scans;
            nm->tick(cycle);
        }
        if (timed)
            s3 = Clock::now();
        if (cycle >= fm.nextWakeTick())
            ++fm_scans;
        fm.tick(cycle);
        if (timed)
            s4 = Clock::now();
        pol.tick(cycle);
        if (timed) {
            s5 = Clock::now();
            t_.timing = false;
        }

        if (!all_done) {
            cycle_ = cycle + 1;
            fastForward();
        }
        if (timed) {
            const Clock::time_point s6 = all_done ? s5 : Clock::now();
            t_.events_ns += nsBetween(s0, s1) - c - (p1 - p0);
            t_.cpu_ns += nsBetween(s1, s2) - c - (p2 - p1);
            t_.nm_ns += nsBetween(s2, s3) - c;
            t_.fm_ns += nsBetween(s3, s4) - c;
            t_.ptick_ns += nsBetween(s4, s5) - c;
            t_.self_ns += all_done ? 0.0 : nsBetween(s5, s6) - c;
            t_.sampled_iter_ns += nsBetween(s0, s6);
        }
        if (all_done)
            break;
    }
    t_.timing = false;

    const Clock::time_point loop1 = Clock::now();
    t_.loop_wall_s += secondsBetween(loop0, loop1);
    t_.iterations += iterations;
    t_.sampled += sampled;
    t_.ticks += cycle_ - start_cycle;
    t_.nm_scans += nm_scans;
    t_.fm_scans += fm_scans;
    return all_done;
}

void
TracedLoop::fastForward()
{
    // When every live core is in the counters-only stall state, nothing
    // can happen before the earliest wakeup among the stall horizons,
    // pending events, DRAM scan registers and the policy's epoch hook.
    const silc::sim::SystemConfig &cfg = sys_.config();
    Tick wake = kTickNever;
    for (uint32_t i = 0; i < cfg.cores; ++i) {
        const silc::cpu::Core &core = sys_.core(i);
        if (core.done())
            continue;
        const Tick su = core.stallUntil();
        if (su <= cycle_)
            return;
        wake = std::min(wake, su);
    }
    wake = std::min(wake, sys_.events().nextEventTick());
    if (sys_.nm() != nullptr)
        wake = std::min(wake, sys_.nm()->nextWakeTick());
    wake = std::min(wake, sys_.fm().nextWakeTick());
    wake = std::min(wake, sys_.policyRef().nextWakeTick());
    wake = std::min(wake, cfg.max_ticks);
    if (wake <= cycle_)
        return;
    const uint64_t skipped = wake - cycle_;
    for (uint32_t i = 0; i < cfg.cores; ++i) {
        silc::cpu::Core &core = sys_.core(i);
        if (!core.done())
            core.addStalledCycles(skipped);
    }
    cycle_ = wake;
}

silc::sim::SimResult
TracedLoop::collect(bool all_done)
{
    policy_->sync();
    return sys_.collectResult(all_done);
}

void
TracedLoop::harvest()
{
    policy_->sync();
    silc::EventQueue &events = sys_.events();
    t_.events_executed += events.executed() - events_executed0_;
    t_.events_cancelled += events.cancelled() - events_cancelled0_;

    auto device = [this](const silc::dram::DramSystem &d, uint64_t &hits,
                         uint64_t &misses) {
        t_.dram_served += d.readsServed() + d.writesServed();
        hits += d.rowHits();
        misses += d.rowMisses();
        t_.bg_promotions += d.bgPromotions();
    };
    if (silc::dram::DramSystem *nm = sys_.nm())
        device(*nm, t_.nm_row_hits, t_.nm_row_misses);
    device(sys_.fm(), t_.fm_row_hits, t_.fm_row_misses);

    const uint32_t ncores = sys_.config().cores;
    const silc::sim::MemoryHierarchy &h = sys_.hierarchy();
    for (uint32_t i = 0; i < ncores; ++i) {
        const silc::cpu::Core &core = sys_.core(i);
        t_.core_cycles += core.finishTick();
        t_.mem_stall_cycles += core.memStallCycles();
        t_.rob_full_cycles += core.robFullCycles();
        t_.l1d_hits += h.l1d(i).hits();
        t_.l1d_misses += h.l1d(i).misses();
    }
    t_.l2_hits += h.l2().hits();
    t_.l2_misses += h.l2().misses();
    t_.mshr_rejections += h.mshrs().rejections();
    t_.mshr_coalesced += h.mshrs().coalesced();

    const silc::policy::FlatMemoryPolicy &pol = sys_.policyRef();
    t_.nm_serviced += pol.nmServiced() - nm_serviced0_;
    t_.demand_requests += pol.demandRequests() - demand0_;
    t_.migrations += pol.migrationOps() - migrations0_;
}

} // namespace perfbench
