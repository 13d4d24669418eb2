#include "sim/experiment.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/config.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "policy/registry.hh"

namespace silc {
namespace sim {

namespace {

uint64_t
envU64(const char *name, uint64_t def)
{
    const char *v = std::getenv(name);
    return v == nullptr ? def : parseSize(v);
}

} // namespace

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions o;
    // Validated parsing throughout: the historical envU64 path accepted
    // 0 cores / 0 instructions (hangs or divides by zero downstream),
    // silently truncated SILC_CORES through a uint32_t cast, and
    // wrapped SILC_*_MIB values above 2^44 in the <<20 conversion.
    o.cores = static_cast<uint32_t>(
        envPositiveCount("SILC_CORES", o.cores, 1024));
    o.instructions_per_core = envPositiveCount(
        "SILC_INSTR", o.instructions_per_core, 1'000'000'000'000ULL);
    o.nm_bytes = envMebibytes("SILC_NM_MIB", o.nm_bytes);
    o.fm_bytes = envMebibytes("SILC_FM_MIB", o.fm_bytes);
    o.seed = envU64("SILC_SEED", o.seed);
    if (const char *s = std::getenv("SILC_SCHEME")) {
        // Validate eagerly so a typo fails at startup, not mid-bench.
        const auto &reg = policy::SchemeRegistry::instance();
        if (!reg.known(s)) {
            std::string names;
            for (const std::string &n : reg.names()) {
                if (!names.empty())
                    names += ", ";
                names += n;
            }
            fatal("SILC_SCHEME: unknown scheme '%s' (known schemes: %s)",
                  s, names.c_str());
        }
        o.scheme = s;
    }
    o.telemetry = envU64("SILC_TELEMETRY", o.telemetry ? 1 : 0) != 0;
    o.epoch_ticks = envU64("SILC_EPOCH_TICKS", o.epoch_ticks);
    o.check = envU64("SILC_CHECK", o.check ? 1 : 0) != 0;
    o.tenants = static_cast<uint32_t>(
        envPositiveCount("SILC_TENANTS", o.tenants, 256));
    // Mem ops, not threads; 0 would be "never churn" but unset already
    // means that, so an explicit 0 is junk.
    o.tenant_churn = envPositiveCount("SILC_TENANT_CHURN",
                                      o.tenant_churn,
                                      1'000'000'000'000ULL);
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
    cfg.telemetry.enabled = opts.telemetry;
    cfg.telemetry.epoch_ticks = opts.epoch_ticks;
    cfg.tenants = opts.tenants;
    cfg.tenant_churn_interval = opts.tenant_churn;
    // Every scheme has at least the shadow-data tier of the oracle, so
    // SILC_CHECK=1 applies across whole multi-scheme bench matrices.
    cfg.check = opts.check;
    return cfg;
}

ExperimentRunner::ExperimentRunner(ExperimentOptions opts)
    : opts_(opts)
{
}

SimResult
ExperimentRunner::run(const std::string &workload,
                      const std::string &scheme)
{
    System system(makeConfig(workload, scheme, opts_));
    return system.run();
}

SimResult
ExperimentRunner::runConfig(const SystemConfig &cfg)
{
    System system(cfg);
    return system.run();
}

Tick
ExperimentRunner::baselineTicks(const std::string &workload)
{
    auto it = baseline_cache_.find(workload);
    if (it != baseline_cache_.end())
        return it->second;
    SimResult base =
        run(workload, policy::SchemeRegistry::instance().baselineName());
    baseline_cache_.emplace(workload, base.ticks);
    return base.ticks;
}

double
ExperimentRunner::speedup(const SimResult &result)
{
    const Tick base = baselineTicks(result.workload);
    return static_cast<double>(base) / static_cast<double>(result.ticks);
}

std::string
u64str(uint64_t v)
{
    return std::to_string(v);
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
