/**
 * @file
 * Multi-tenant workload composition: N tenants time-share one core's
 * instruction stream, modelling a consolidated server in front of the
 * flat NM+FM space (the deployment SILC-FM targets at rack scale).
 *
 * Each tenant runs its own SyntheticGenerator over a private virtual
 * address window (tenant id folded in above bit 32, so the first-touch
 * allocator in sim::Translation keeps tenants' physical pages fully
 * disjoint while their PC streams stay shared, as with one binary
 * deployed many times).  Tenant popularity is Zipf-distributed — a few
 * tenants dominate the instruction mix — and an optional churn process
 * models arrivals and departures: every churn_interval memory ops one
 * random tenant toggles between active and parked, never dropping the
 * active population below min_active.  A parked tenant keeps its
 * generator state and resumes warm, which is exactly the reuse a
 * capacity scheme must exploit (or age out) across tenancy changes.
 *
 * Fully deterministic given (params, profile, seed) and snapshot/
 * restore-capable, so multi-tenant runs compose with sampling like any
 * other source.
 */

#ifndef SILC_TRACE_TENANTS_HH
#define SILC_TRACE_TENANTS_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "trace/generator.hh"

namespace silc {
namespace trace {

/** Composition knobs for one core's tenant mix. */
struct TenantMixParams
{
    /** Tenants sharing the stream (>= 1; 1 degenerates to a plain
     *  generator with an offset address space). */
    uint32_t tenants = 2;

    /** Lower bound on concurrently active tenants (>= 1). */
    uint32_t min_active = 1;

    /** Zipf skew of tenant popularity (0 = uniform time share). */
    double zipf_alpha = 0.9;

    /** Memory ops between arrival/departure events (0 = static
     *  population, everyone stays active). */
    uint64_t churn_interval = 0;
};

class TenantMixSource final : public TraceSource
{
  public:
    /** Width of each tenant's private virtual window. */
    static constexpr uint32_t kTenantAddrBits = 32;

    /**
     * @param params  mix shape (validated here, fatal() on nonsense)
     * @param profile per-tenant workload (same binary, rate style)
     * @param seed    master seed; tenant streams and the mix/churn RNG
     *                derive from it deterministically
     */
    TenantMixSource(TenantMixParams params,
                    const WorkloadProfile &profile, uint64_t seed);

    TraceInstruction next() override;

    void snapshot(BlobWriter &w) const override;
    void restore(BlobReader &r) override;

    // ---- Per-tenant telemetry (the tenant-sweep bench reads these). --

    uint32_t tenants() const { return params_.tenants; }
    uint64_t tenantInstructions(uint32_t t) const { return instrs_[t]; }
    uint64_t tenantMemOps(uint32_t t) const { return mem_ops_[t]; }

    uint64_t arrivals() const { return arrivals_; }
    uint64_t departures() const { return departures_; }
    uint32_t activeTenants() const;

  private:
    /** Zipf-ranked pick, redirected to the next active tenant. */
    uint32_t pickTenant();

    /** One arrival-or-departure toggle of a random tenant. */
    void churnEvent();

    TenantMixParams params_;
    /** Mix/churn entropy, separate from the tenants' own streams so a
     *  tenant's behaviour does not depend on who else is scheduled. */
    Rng mix_rng_;
    ZipfSampler tenant_zipf_;

    std::vector<std::unique_ptr<SyntheticGenerator>> gens_;
    /** 1 = active, 0 = parked (uint8_t for simple serialization). */
    std::vector<uint8_t> active_;

    std::vector<uint64_t> instrs_;
    std::vector<uint64_t> mem_ops_;
    uint64_t total_mem_ops_ = 0;
    uint64_t churn_countdown_ = 0;
    uint64_t arrivals_ = 0;
    uint64_t departures_ = 0;
};

} // namespace trace
} // namespace silc

#endif // SILC_TRACE_TENANTS_HH
