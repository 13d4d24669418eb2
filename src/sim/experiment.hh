/**
 * @file
 * Experiment set-up shared by the bench binaries: the SILC_* scale
 * knobs (common/knobs.hh lists them all), config construction for
 * (workload, scheme) pairs, and table formatting helpers.  Runs fan out
 * through sim/parallel.hh.
 */

#ifndef SILC_SIM_EXPERIMENT_HH
#define SILC_SIM_EXPERIMENT_HH

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

// ---- Small table-printing helpers shared by the benches. ----

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
