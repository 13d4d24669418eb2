/**
 * @file
 * Full-system assembly: cores + caches + MSHRs + translation + a
 * flat-memory policy + two DRAM systems, with the cycle loop and metric
 * extraction.  This is the top-level public API most users touch:
 *
 *     sim::SystemConfig cfg = sim::SystemConfig::defaults();
 *     cfg.workload = "mcf";
 *     cfg.scheme = "silcfm";   // any name in policy::SchemeRegistry
 *     sim::System system(cfg);
 *     sim::SimResult r = system.run();
 */

#ifndef SILC_SIM_SYSTEM_HH
#define SILC_SIM_SYSTEM_HH

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/event_queue.hh"
#include "core/silc_fm.hh"
#include "cpu/core.hh"
#include "dram/dram_system.hh"
#include "policy/cameo.hh"
#include "policy/dram_cache.hh"
#include "policy/hma.hh"
#include "policy/memcache.hh"
#include "policy/pom.hh"
#include "sim/metrics.hh"
#include "sim/translation.hh"
#include "telemetry/recorder.hh"
#include "trace/generator.hh"

namespace silc {

namespace check {
class DifferentialChecker;
class ShadowChecker;
} // namespace check

namespace sim {

/** All knobs of one simulation. */
struct SystemConfig
{
    uint32_t cores = 8;
    uint64_t instructions_per_core = 500'000;
    std::string workload = "mcf";
    /**
     * When non-empty, cores replay this recorded trace file (see
     * trace/file_trace.hh) instead of synthesising the workload; every
     * core replays the same trace, as in SPEC rate mode.
     */
    std::string trace_file;
    /**
     * Memory-organization scheme, by registry name (see
     * policy/registry.hh; aliases accepted).  validate() fatals on an
     * unknown name and lists the registered schemes.
     */
    std::string scheme = "silcfm";
    uint64_t seed = 1;

    uint64_t nm_bytes = 4 * 1024 * 1024;
    uint64_t fm_bytes = 16 * 1024 * 1024;

    /**
     * Multi-tenant traffic (trace/tenants.hh): > 1 wraps each core's
     * synthetic stream in a TenantMixSource — this many tenants with
     * Zipf-skewed time shares, private address windows, and optional
     * arrival/departure churn.  Ignored when trace_file is set.
     */
    uint32_t tenants = 1;
    /** Lower bound on concurrently active tenants (churn floor). */
    uint32_t tenant_min_active = 1;
    /** Zipf skew of tenant popularity (0 = uniform time share). */
    double tenant_zipf_alpha = 0.9;
    /** Memory ops between arrival/departure events (0 = no churn). */
    uint64_t tenant_churn_interval = 0;

    cpu::CoreParams core_params;
    /** Extra ticks between LLC fill and dependent wakeup. */
    uint32_t fill_latency = 2;

    cache::CacheParams l1d;
    cache::CacheParams l2;

    uint32_t mshr_entries = 128;
    uint32_t mshr_per_core = 16;

    dram::DramTimingParams nm_timing;
    dram::DramTimingParams fm_timing;

    core::SilcFmParams silc;
    policy::HmaParams hma;
    policy::PomParams pom;
    policy::CameoParams cameo;
    policy::DramCacheParams dramcache;
    policy::MemCacheParams memcache;

    /**
     * Epoch time-series instrumentation (src/telemetry/).  Disabled by
     * default: no epoch events are scheduled and run() leaves
     * SimResult::telemetry null, so simulation timing is unaffected.
     */
    telemetry::TelemetryConfig telemetry;

    /**
     * Run the untimed two-tier oracle (src/check/) in lockstep with the
     * policy and panic() on the first violation.  Every scheme gets the
     * scheme-agnostic shadow-data invariant checker (check/shadow.hh);
     * schemes with a reference model (currently SILC-FM) additionally
     * get their metadata-lockstep oracle.  Roughly doubles the
     * per-access policy cost.  Env: SILC_CHECK=1.
     */
    bool check = false;

    /** Safety cutoff. */
    Tick max_ticks = 500'000'000;

    /**
     * Must be 1: the simulation loop is sequential, and validate()
     * rejects any other value.  Parallelism lives a level up — whole
     * jobs (sim/parallel.hh) and sampling windows (sample/).  The field
     * survives only because the repository benchmark (perfbench/)
     * assigns it; remove it together with those assignments.
     */
    uint32_t sim_threads = 1;

    /** Table II defaults (with capacity/L2 scaled as per DESIGN.md). */
    static SystemConfig defaults();

    /** fatal() on inconsistent settings. */
    void validate() const;
};

class MemoryHierarchy;

/** One complete simulated machine. */
class System
{
  public:
    explicit System(SystemConfig cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run to completion (or the tick limit) and collect metrics. */
    SimResult run();

    // ---- Sampling hooks (src/sample/). ----

    /**
     * Advance the sequential cycle loop until every core has retired
     * its current instruction budget (or the tick limit hits).  Unlike
     * run(), the loop is resumable: the cycle counter is a member, so
     * extending the per-core budgets and calling runToBudget() again
     * continues the same simulation.
     *
     * @retval true  all cores retired their budgets
     * @retval false the max_ticks cutoff fired first
     */
    bool runToBudget();

    /** Metric extraction over the current state (shared by run()). */
    SimResult collectResult(bool all_done);

    /**
     * Switch the policy and hierarchy into functional-warming mode:
     * caches, translation, and policy metadata update as usual, but LLC
     * misses complete synchronously (no MSHR, no DRAM traffic) — the
     * fast-forward phase between detailed sampling windows.
     */
    void setFunctionalMode(bool on);

    /** Replace every core's instruction budget (see runToBudget()). */
    void setPerCoreBudget(uint64_t instructions);

    /** Core @p c's instruction stream (the tenant-sweep bench
     *  downcasts to trace::TenantMixSource for per-tenant stats). */
    const trace::TraceSource &traceSource(uint32_t c) const
    {
        return *traces_.at(c);
    }

    /**
     * Serialize the architectural state into a checkpoint blob for the
     * sampling subsystem (sample/sampling.hh): translation mappings,
     * cache contents, policy metadata (SILC-FM remap/bit-vector/lock
     * state, predictor and balancer state, counters) and per-core trace
     * positions.  Only legal at a functional-mode pause point
     * (runToBudget() returned true in functional mode): the MSHR file
     * must be empty and both DRAM systems idle, which this asserts.
     * Timing state — MSHRs, DRAM queues, in-flight events — is
     * deliberately excluded: replays start from quiesced devices and
     * re-warm them during the detailed-warmup prefix of each window.
     *
     * Because replays construct their System from the identical
     * SystemConfig, constructor-derived state (frame shuffle order,
     * workload profile tables, RNG-free masks) is reproduced exactly and
     * never serialized; only mutable runtime state goes into the blob.
     */
    void snapshotState(BlobWriter &w) const;

    /** Restore state captured by snapshotState() into a freshly built,
     *  identically configured System (fatal on policy/core-count
     *  mismatch, truncation, or trailing bytes). */
    void restoreState(BlobReader &r);

    /** Current cycle of the resumable sequential loop. */
    Tick currentCycle() const { return cycle_; }

    Translation &translation() { return *translation_; }

    /**
     * Dump a gem5-style "name value # description" statistics listing
     * for every component (cores, caches, MSHRs, DRAM devices, policy)
     * — call after run().
     */
    void dumpStats(std::ostream &os) const;

    const SystemConfig &config() const { return cfg_; }
    policy::FlatMemoryPolicy &policyRef() { return *policy_; }
    dram::DramSystem *nm() { return nm_.get(); }
    dram::DramSystem &fm() { return *fm_; }
    MemoryHierarchy &hierarchy() { return *hierarchy_; }
    cpu::Core &core(uint32_t i) { return *cores_[i]; }
    EventQueue &events() { return events_; }

    /** Oracle-verified accesses of the last run (0 when check is off);
     *  sums the shadow and differential tiers. */
    uint64_t accessesChecked() const;

  private:
    /** Build the recorder and register every component's probes. */
    void attachTelemetry();

    SystemConfig cfg_;
    EventQueue events_;
    /** Cycle counter of the sequential loop (member: see runToBudget). */
    Tick cycle_ = 0;
    bool functional_ = false;
    /** First cycle of the current functional-warming segment; each
     *  core's warmup stagger offset is relative to this (see
     *  runToBudget and DESIGN.md "known biases"). */
    Tick warm_seg_start_ = 0;
    std::unique_ptr<dram::DramSystem> nm_;
    std::unique_ptr<dram::DramSystem> fm_;
    std::unique_ptr<policy::FlatMemoryPolicy> policy_;
    std::unique_ptr<Translation> translation_;
    std::unique_ptr<MemoryHierarchy> hierarchy_;
    std::vector<std::unique_ptr<trace::TraceSource>> traces_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::unique_ptr<telemetry::Recorder> recorder_;
    std::unique_ptr<check::DifferentialChecker> checker_;
    std::unique_ptr<check::ShadowChecker> shadow_;
};

/**
 * The cache/MSHR stack between cores and the policy; implements the
 * cpu::MemoryPort the cores issue into.
 */
class MemoryHierarchy : public cpu::MemoryPort
{
  public:
    MemoryHierarchy(const SystemConfig &cfg, Translation &translation,
                    policy::FlatMemoryPolicy &policy);

    bool access(CoreId core, Addr vaddr, Addr pc, bool is_write,
                std::function<void(Tick)> done, Tick now) override;

    uint64_t llcMisses() const { return llc_misses_total_; }

    /** Mean ticks from LLC miss issue to fill. */
    double
    avgMissLatency() const
    {
        return misses_completed_ == 0
            ? 0.0
            : miss_latency_sum_ / static_cast<double>(misses_completed_);
    }

    /** Cumulative LLC miss latency (ticks) and completed-miss count —
     *  the sampling layer differences these across window edges. */
    double missLatencySum() const { return miss_latency_sum_; }
    uint64_t missesCompleted() const { return misses_completed_; }

    /**
     * Functional-warming mode: LLC misses bypass the MSHR file and the
     * policy's timing skeleton; fills happen synchronously and the
     * completion fires at now + 1.  Keeps cache contents, miss counts,
     * and policy metadata warm at a fraction of the detailed-mode cost.
     */
    void setWarming(bool on) { warming_ = on; }

    /** Serialize cache contents + miss counters for checkpointing. */
    void snapshot(BlobWriter &w) const;
    void restore(BlobReader &r);

    const cache::Cache &l1d(CoreId core) const { return l1d_[core]; }
    const cache::Cache &l2() const { return l2_; }
    const cache::MshrFile &mshrs() const { return mshr_; }

  private:
    const SystemConfig &cfg_;
    Translation &translation_;
    policy::FlatMemoryPolicy &policy_;

    std::vector<cache::Cache> l1d_;
    cache::Cache l2_;
    cache::MshrFile mshr_;

    uint64_t llc_misses_total_ = 0;
    double miss_latency_sum_ = 0.0;
    uint64_t misses_completed_ = 0;
    bool warming_ = false;
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_SYSTEM_HH
