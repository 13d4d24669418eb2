#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "policy/registry.hh"

namespace silc {
namespace sim {

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions o;
    o.cores = static_cast<uint32_t>(knobs::count("SILC_CORES", o.cores));
    o.instructions_per_core =
        knobs::count("SILC_INSTR", o.instructions_per_core);
    o.nm_bytes = knobs::mebibytes("SILC_NM_MIB", o.nm_bytes);
    o.fm_bytes = knobs::mebibytes("SILC_FM_MIB", o.fm_bytes);
    o.seed = knobs::count("SILC_SEED", o.seed);
    o.scheme = knobs::text("SILC_SCHEME", o.scheme);
    // Validate eagerly so a typo fails at startup, not mid-bench.
    const auto &reg = policy::SchemeRegistry::instance();
    if (!reg.known(o.scheme)) {
        std::string names;
        for (const std::string &n : reg.names()) {
            if (!names.empty())
                names += ", ";
            names += n;
        }
        fatal("SILC_SCHEME: unknown scheme '%s' (known schemes: %s)",
              o.scheme.c_str(), names.c_str());
    }
    o.epoch_ticks = knobs::count("SILC_EPOCH_TICKS", o.epoch_ticks);
    o.check = knobs::flag("SILC_CHECK", o.check);
    o.tenants =
        static_cast<uint32_t>(knobs::count("SILC_TENANTS", o.tenants));
    o.tenant_churn = knobs::count("SILC_TENANT_CHURN", o.tenant_churn);
    return o;
}

SystemConfig
makeConfig(const std::string &workload, const std::string &scheme,
           const ExperimentOptions &opts)
{
    SystemConfig cfg = SystemConfig::defaults();
    cfg.workload = workload;
    cfg.scheme = scheme;
    cfg.cores = opts.cores;
    cfg.instructions_per_core = opts.instructions_per_core;
    cfg.nm_bytes = opts.nm_bytes;
    cfg.fm_bytes = opts.fm_bytes;
    cfg.seed = opts.seed;
    // Scaled runs see far fewer than the paper's 1M accesses between
    // agings; keep the aging cadence proportional to run length.
    cfg.silc.aging_interval =
        std::max<uint64_t>(20'000, opts.instructions_per_core / 8);
    // The paper's threshold of 50 assumes 1B-instruction slices; scaled
    // runs see proportionally fewer per-page accesses per aging window.
    cfg.silc.hot_threshold = 12;
    // HMA's epoch must fit several times into a scaled run the same way
    // hundreds-of-ms epochs fit into the paper's full executions.
    cfg.hma.epoch_ticks =
        std::max<Tick>(100'000, opts.instructions_per_core);
    cfg.hma.hot_threshold = 16;
    cfg.hma.max_migrations_per_epoch = 256;
    // PoM's competing-counter threshold, scaled like the others.
    cfg.pom.migration_threshold = 48;
    cfg.telemetry.epoch_ticks = opts.epoch_ticks;
    cfg.tenants = opts.tenants;
    cfg.tenant_churn_interval = opts.tenant_churn;
    // Every scheme has at least the shadow-data tier of the oracle, so
    // SILC_CHECK=1 applies across whole multi-scheme bench matrices.
    cfg.check = opts.check;
    return cfg;
}

void
printTableHeader(const std::string &label,
                 const std::vector<std::string> &columns)
{
    std::printf("%-10s", label.c_str());
    for (const auto &c : columns)
        std::printf(" %9s", c.c_str());
    std::printf("\n");
    printTableRule(columns.size());
}

void
printTableRow(const std::string &label, const std::vector<double> &values,
              int precision)
{
    std::printf("%-10s", label.c_str());
    for (double v : values)
        std::printf(" %9.*f", precision, v);
    std::printf("\n");
}

void
printTableRule(size_t columns)
{
    std::printf("----------");
    for (size_t i = 0; i < columns; ++i)
        std::printf("-%.9s", "---------");
    std::printf("\n");
}

} // namespace sim
} // namespace silc
