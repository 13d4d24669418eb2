/**
 * @file
 * Outside-in layer tracing for the benchmark's traced run.
 *
 * Nothing here edits the simulator.  Layers are timed around calls into
 * their public functions:
 *
 *  - TracedLoop is a copy of the detailed path of System::runToBudget()
 *    built only from public calls (events().runDue, core(i).tick,
 *    nm()->tick, fm().tick, policyRef().tick and the stall fast-forward),
 *    with a span around each call.
 *  - TracedPolicy is a delegating FlatMemoryPolicy registered under its
 *    own scheme name ("traced.<scheme>", in_matrix=false) that spans
 *    every demandAccess/writeback of the real policy.
 *
 * Clock reads cost tens of nanoseconds, as much as a no-op device tick,
 * so per-cycle spans are taken on a random 1-in-16 sample of loop
 * iterations; the cost of one clock read (calibrated at start-up) is
 * subtracted from every span, and the span sums are scaled so they add
 * up to the untraced loop time (see LayerTotals::spanScale).  Counts
 * (iterations, scans, calls) are exact.  Spans are aggregated in memory
 * per layer and written when the benchmark ends.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <memory>

#include "policy/policy.hh"
#include "sim/system.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Host nanoseconds one Clock::now() call costs (calibrated once). */
double clockCostNs();

/**
 * Per-layer totals of the traced simulations of one thread; merged
 * across threads at the end.  Times are seconds; the "_ns" span sums
 * cover only the sampled iterations and are scaled by spanScale().
 */
struct LayerTotals
{
    // sim
    double setup_s = 0.0;      ///< System constructor spans
    double loop_wall_s = 0.0;  ///< TracedLoop::runToBudget spans
    uint64_t iterations = 0;   ///< loop iterations (exact)
    uint64_t sampled = 0;      ///< iterations with per-layer spans
    uint64_t ticks = 0;        ///< simulated ticks covered by the loops

    // Per-iteration spans on sampled iterations (ns, clock cost removed).
    double events_ns = 0.0;    ///< runDue minus nested policy spans
    double cpu_ns = 0.0;       ///< Core::tick of all cores minus policy
    double nm_ns = 0.0;
    double fm_ns = 0.0;
    double ptick_ns = 0.0;     ///< FlatMemoryPolicy::tick
    double self_ns = 0.0;      ///< loop bookkeeping and fast-forward
    /** Whole sampled iterations, clock reads included. */
    double sampled_iter_ns = 0.0;

    // policy (TracedPolicy): demand + writeback calls
    uint64_t policy_calls = 0;
    uint64_t policy_timed_calls = 0;
    double policy_ns = 0.0;        ///< timed calls, clock cost removed
    /** Timed calls' time as seen by the enclosing span (own time plus
     *  both clock reads), subtracted from that span's self time. */
    double policy_incl_ns = 0.0;

    // Exact counters read from the simulated components.
    uint64_t events_executed = 0;
    uint64_t events_cancelled = 0;
    uint64_t nm_scans = 0;
    uint64_t fm_scans = 0;
    uint64_t dram_served = 0;
    uint64_t nm_row_hits = 0, nm_row_misses = 0;
    uint64_t fm_row_hits = 0, fm_row_misses = 0;
    uint64_t bg_promotions = 0;
    uint64_t core_cycles = 0;
    uint64_t mem_stall_cycles = 0;
    uint64_t rob_full_cycles = 0;
    uint64_t l1d_hits = 0, l1d_misses = 0;
    uint64_t l2_hits = 0, l2_misses = 0;
    uint64_t mshr_rejections = 0;
    uint64_t mshr_coalesced = 0;
    uint64_t nm_serviced = 0;
    uint64_t demand_requests = 0;
    uint64_t migrations = 0;

    /** True while the current loop iteration is sampled. */
    bool timing = false;

    void merge(const LayerTotals &o);

    /**
     * Host seconds the loops would have taken untraced: the unsampled
     * iterations' time (loop wall minus the sampled iterations),
     * extrapolated to all iterations.
     */
    double untracedLoopSeconds() const;

    /**
     * Factor that turns a sampled-iteration span sum (ns) into seconds
     * of the untraced loop: the per-layer self times then add up to
     * untracedLoopSeconds(), so clock cost the calibration missed is
     * spread over the layers instead of showing as a negative remainder.
     */
    double spanScale() const;
};

/**
 * The traced run's LayerTotals for Systems built on this thread: the
 * TracedPolicy factory picks it up at construction.  Null builds an
 * untraced delegate.
 */
void setThreadTotals(LayerTotals *totals);

/** Register "traced.<name>" for every registered scheme (idempotent). */
void registerTracedSchemes();

/** The traced scheme name wrapping @p scheme. */
std::string tracedScheme(const std::string &scheme);

/**
 * Delegating policy: forwards everything to the real scheme and spans
 * demandAccess/writeback.  The non-virtual base counters that
 * collectResult() reads (access rate, migrations) are mirrored from the
 * inner policy after every forwarded call and by sync().
 */
class TracedPolicy final : public silc::policy::FlatMemoryPolicy
{
  public:
    TracedPolicy(std::unique_ptr<silc::policy::FlatMemoryPolicy> inner,
                 silc::policy::PolicyEnv env, LayerTotals *totals);

    const char *name() const override { return inner_->name(); }
    uint64_t flatSpaceBytes() const override
    {
        return inner_->flatSpaceBytes();
    }
    void demandAccess(silc::Addr paddr, bool is_write, silc::CoreId core,
                      silc::Addr pc, silc::policy::DemandCallback done,
                      silc::Tick now) override;
    void writeback(silc::Addr paddr, silc::CoreId core,
                   silc::Tick now) override;
    void tick(silc::Tick now) override;
    silc::Tick nextWakeTick() const override
    {
        return inner_->nextWakeTick();
    }
    silc::policy::Location locate(silc::Addr paddr) const override
    {
        return inner_->locate(paddr);
    }
    silc::policy::Location homeLocation(silc::Addr paddr) const override
    {
        return inner_->homeLocation(paddr);
    }
    silc::Addr homeFlatAddr(
        const silc::policy::Location &loc) const override
    {
        return inner_->homeFlatAddr(loc);
    }
    uint64_t homeNmBytes() const override
    {
        return inner_->homeNmBytes();
    }
    void forEachDisplacedBlock(
        const std::function<void(uint64_t)> &fn) const override
    {
        inner_->forEachDisplacedBlock(fn);
    }
    void registerTelemetry(
        silc::telemetry::Sampler &sampler) const override
    {
        inner_->registerTelemetry(sampler);
    }
    bool supportsSampling() const override
    {
        return inner_->supportsSampling();
    }
    void snapshotState(silc::BlobWriter &w) const override
    {
        inner_->snapshotState(w);
    }
    void restoreState(silc::BlobReader &r) override;

    /** Mirror the inner policy's mode in and its counters out. */
    void sync();

    const silc::policy::FlatMemoryPolicy &inner() const { return *inner_; }

  private:
    /** Run @p call on the inner policy, spanned on sampled iterations. */
    template <typename Call> void forward(Call &&call);

    std::unique_ptr<silc::policy::FlatMemoryPolicy> inner_;
    LayerTotals *totals_;
    double clock_ns_;
};

/**
 * Copy of the detailed (non-functional) path of System::runToBudget(),
 * resumable the same way: the cycle counter is a member, so extending
 * the per-core budgets and calling runToBudget() again continues the
 * simulation.  The System must be built with a traced scheme.
 */
class TracedLoop
{
  public:
    TracedLoop(silc::sim::System &sys, LayerTotals &totals,
               uint64_t sample_seed);

    /** @retval true all cores retired their budgets. */
    bool runToBudget();

    /** collectResult(), after mirroring the policy's counters. */
    silc::sim::SimResult collect(bool all_done);

    /** Add the components' counters to the totals (call once, last). */
    void harvest();

    silc::Tick cycle() const { return cycle_; }

  private:
    /** System::runToBudget's stall fast-forward of cycle_. */
    void fastForward();

    silc::sim::System &sys_;
    LayerTotals &t_;
    TracedPolicy *policy_;
    silc::Tick cycle_ = 0;
    uint64_t rng_;
    // Counters a checkpoint restore may carry in; harvest() reports the
    // deltas since the loop was built.
    uint64_t events_executed0_;
    uint64_t events_cancelled0_;
    uint64_t nm_serviced0_;
    uint64_t demand0_;
    uint64_t migrations0_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
