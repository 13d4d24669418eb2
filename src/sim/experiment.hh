/**
 * @file
 * The experiment runner used by the bench binaries: builds configs for
 * (workload, scheme) pairs, caches no-NM baseline runs so speedups share
 * a denominator, applies the SILC_* scale knobs (common/knobs.hh lists
 * them all), and provides table formatting helpers.
 */

#ifndef SILC_SIM_EXPERIMENT_HH
#define SILC_SIM_EXPERIMENT_HH

#include <map>
#include <string>
#include <vector>

#include "sim/metrics.hh"
#include "sim/system.hh"

namespace silc {
namespace sim {

/** Scale parameters shared by all bench binaries. */
struct ExperimentOptions
{
    uint32_t cores = 8;
    uint64_t instructions_per_core = 2'400'000;
    uint64_t nm_bytes = 4 * 1024 * 1024;
    uint64_t fm_bytes = 16 * 1024 * 1024;
    uint64_t seed = 1;

    /** Scheme for single-scheme benches (SILC_SCHEME, registry name). */
    std::string scheme = "silcfm";

    /** Lockstep two-tier oracle on every run (SILC_CHECK). */
    bool check = false;
    /** Telemetry epoch length in ticks (SILC_EPOCH_TICKS). */
    uint64_t epoch_ticks = 100'000;

    /** Tenants per core's stream (SILC_TENANTS); 1 = single-tenant. */
    uint32_t tenants = 1;
    /** Mem ops between tenant arrivals/departures (SILC_TENANT_CHURN);
     *  0 = static tenant population. */
    uint64_t tenant_churn = 0;

    /**
     * The initializers above, overridden by any SILC_* knobs set in the
     * environment.  SILC_SCHEME must name a registered scheme.
     */
    static ExperimentOptions fromEnv();
};

/** Build a full SystemConfig for one run of @p scheme (registry name). */
SystemConfig makeConfig(const std::string &workload,
                        const std::string &scheme,
                        const ExperimentOptions &opts);

/**
 * Runs simulations and caches the per-workload no-NM baseline so every
 * speedup in a bench shares the same denominator (the paper's figure of
 * merit: baseline time / scheme time).
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentOptions opts);

    const ExperimentOptions &options() const { return opts_; }

    /** Run one (workload, scheme) pair. */
    SimResult run(const std::string &workload, const std::string &scheme);

    /** Run with a caller-tweaked config (capacity sweeps, ablations). */
    SimResult runConfig(const SystemConfig &cfg);

    /** Execution ticks of the cached no-NM baseline for @p workload. */
    Tick baselineTicks(const std::string &workload);

    /** Speedup of @p result against the no-NM baseline. */
    double speedup(const SimResult &result);

  private:
    ExperimentOptions opts_;
    std::map<std::string, Tick> baseline_cache_;
};

// ---- Small table-printing helpers shared by the benches. ----

/**
 * Decimal rendering of a 64-bit counter for printf("%s") use.  Replaces
 * the non-portable "%llu" + static_cast<unsigned long long> pattern the
 * benches used to repeat (uint64_t is not unsigned long long on every
 * LP64 platform).
 */
std::string u64str(uint64_t v);

/** Print a header row: left label column plus one column per entry. */
void printTableHeader(const std::string &label,
                      const std::vector<std::string> &columns);

/** Print one row of doubles under a matching header. */
void printTableRow(const std::string &label,
                   const std::vector<double> &values, int precision = 3);

/** A horizontal rule sized for @p columns entries. */
void printTableRule(size_t columns);

} // namespace sim
} // namespace silc

#endif // SILC_SIM_EXPERIMENT_HH
