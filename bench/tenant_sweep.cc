/**
 * @file
 * Multi-tenant consolidation sweep: how does each scheme's speedup hold
 * up as N tenants (Zipf-skewed popularity, optional arrival/departure
 * churn) time-share the flat NM+FM space?  Not a paper figure — the
 * paper evaluates single-workload mixes — but the deployment SILC-FM
 * targets is consolidated servers, so this is the capacity stress the
 * subblocked+locking design is meant to absorb.
 *
 * Unlike the figure benches this constructs Systems directly instead of
 * going through the ParallelRunner: it needs the live System after the
 * run to read per-tenant telemetry out of the TenantMixSource (share of
 * instructions, arrivals/departures, final active population).
 */

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "policy/registry.hh"
#include "sim/result_writer.hh"
#include "trace/profiles.hh"
#include "trace/tenants.hh"

using namespace silc;
using namespace silc::sim;

namespace {

/** Per-tenant mix digest aggregated across all cores of one run. */
struct TenantDigest
{
    std::vector<uint64_t> instrs;
    std::vector<uint64_t> mem_ops;
    uint64_t arrivals = 0;
    uint64_t departures = 0;
    uint32_t active = 0;
};

TenantDigest
digestTenants(const System &system, const SystemConfig &cfg)
{
    TenantDigest d;
    d.instrs.assign(cfg.tenants, 0);
    d.mem_ops.assign(cfg.tenants, 0);
    for (uint32_t c = 0; c < cfg.cores; ++c) {
        const auto *mix = dynamic_cast<const trace::TenantMixSource *>(
            &system.traceSource(c));
        if (mix == nullptr)
            continue;
        for (uint32_t t = 0; t < mix->tenants(); ++t) {
            d.instrs[t] += mix->tenantInstructions(t);
            d.mem_ops[t] += mix->tenantMemOps(t);
        }
        d.arrivals += mix->arrivals();
        d.departures += mix->departures();
        d.active += mix->activeTenants();
    }
    return d;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    const std::string json_path = args.json();
    ResultWriter writer(json_path, opts);

    const std::vector<std::string> schemes =
        policy::SchemeRegistry::instance().matrixNames();
    const std::string baseline =
        policy::SchemeRegistry::instance().baselineName();
    // Tenant counts swept; SILC_TENANTS (when set above 1) replaces the
    // default ladder so CI smokes can pin a single point.
    std::vector<uint32_t> tenant_counts = {1, 2, 4, 8};
    if (opts.tenants > 1)
        tenant_counts = {opts.tenants};
    const std::string workload = "mcf";
    const uint64_t churn = opts.tenant_churn != 0
        ? opts.tenant_churn
        : opts.instructions_per_core / 8;

    std::printf("=== Tenant sweep: %s, %u cores, churn every %" PRIu64
                " mem ops ===\n\n",
                workload.c_str(), opts.cores, churn);

    // One no-NM baseline per tenant count: consolidation changes the
    // reference stream, so each point needs its own denominator.
    std::vector<std::string> columns;
    for (uint32_t n : tenant_counts)
        columns.push_back("x" + std::to_string(n));
    printTableHeader("scheme", columns);

    std::vector<Tick> baseline_ticks(tenant_counts.size(), 0);
    for (size_t i = 0; i < tenant_counts.size(); ++i) {
        SystemConfig cfg = makeConfig(workload, baseline, opts);
        cfg.tenants = tenant_counts[i];
        cfg.tenant_churn_interval = tenant_counts[i] > 1 ? churn : 0;
        System system(cfg);
        baseline_ticks[i] = system.run().ticks;
    }

    std::vector<TenantDigest> digests(tenant_counts.size());
    for (const auto &scheme : schemes) {
        std::vector<double> row;
        for (size_t i = 0; i < tenant_counts.size(); ++i) {
            SystemConfig cfg = makeConfig(workload, scheme, opts);
            cfg.tenants = tenant_counts[i];
            cfg.tenant_churn_interval = tenant_counts[i] > 1 ? churn : 0;
            System system(cfg);
            SimResult r = system.run();
            writer.add(r);
            row.push_back(static_cast<double>(baseline_ticks[i]) /
                          static_cast<double>(r.ticks));
            if (scheme == "silcfm" && cfg.tenants > 1)
                digests[i] = digestTenants(system, cfg);
        }
        printTableRow(scheme, row);
        std::fflush(stdout);
    }

    // Per-tenant mix telemetry from the silcfm runs: instruction share
    // should track the Zipf ranks, churn counters the toggle cadence.
    std::printf("\n--- silcfm per-tenant mix ---\n");
    for (size_t i = 0; i < tenant_counts.size(); ++i) {
        const TenantDigest &d = digests[i];
        if (d.instrs.empty())
            continue;
        uint64_t total = 0;
        for (uint64_t v : d.instrs)
            total += v;
        std::printf("tenants=%u  arrivals=%" PRIu64 " departures=%" PRIu64
                    " active(sum over cores)=%u\n",
                    tenant_counts[i], d.arrivals, d.departures, d.active);
        for (size_t t = 0; t < d.instrs.size(); ++t) {
            const double share = total == 0
                ? 0.0
                : 100.0 * static_cast<double>(d.instrs[t]) /
                      static_cast<double>(total);
            std::printf("  tenant %2zu: %5.1f%% instr  mem_ops=%" PRIu64
                        "\n", t, share, d.mem_ops[t]);
        }
    }

    if (!json_path.empty()) {
        writer.write();
        std::fprintf(stderr, "wrote %zu runs to %s\n", writer.runs(),
                     json_path.c_str());
    }
    return 0;
}
