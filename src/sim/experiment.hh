/**
 * @file
 * The experiment runner used by the bench binaries: builds configs for
 * (workload, scheme) pairs, caches no-NM baseline runs so speedups share
 * a denominator, applies environment-variable scale overrides, and
 * provides table formatting helpers.
 *
 * Scale knobs (environment variables, all optional).  Defaults quote
 * the ExperimentOptions initializers below — keep them in sync:
 *   SILC_SCHEME  - memory-organization scheme for benches that run a
 *                  single scheme (registry name or alias, e.g. silcfm,
 *                  dramcache; see policy/registry.hh).  Validated
 *                  against the registry: unknown or empty values are a
 *                  fatal error listing the registered schemes.
 *   SILC_CORES   - cores per run          (default 8, max 1024)
 *   SILC_INSTR   - instructions per core  (default 2400000, max 1e12)
 *   SILC_NM_MIB  - NM capacity in MiB     (default 4, max 1048576)
 *   SILC_FM_MIB  - FM capacity in MiB     (default 16, max 1048576)
 *                  The four knobs above reject 0, non-numeric values,
 *                  trailing junk, and anything over their cap with a
 *                  fatal error naming the variable (common/env.hh).
 *   SILC_SEED    - RNG seed               (default 1)
 *   SILC_THREADS - simulation worker threads used by the benches'
 *                  ParallelRunner (sim/parallel.hh); default is
 *                  hardware_concurrency, 1 runs everything
 *                  sequentially.  Tables are byte-identical across
 *                  thread counts.  Rejects 0 and non-numeric values
 *                  with a fatal error.
 *   SILC_TENANTS - tenants time-sharing each core's stream (default 1,
 *                  max 256; see trace/tenants.hh).  > 1 gives every
 *                  tenant a private address window with Zipf-skewed
 *                  popularity.
 *   SILC_TENANT_CHURN - memory ops between tenant arrival/departure
 *                  events (unset = static population; explicit 0 is
 *                  rejected as junk).
 *
 * Telemetry / export knobs (see src/telemetry/ and sim/result_writer.hh):
 *   SILC_JSON        - write every run's SimResult (plus its epoch time
 *                      series) to this path as one JSON document; the
 *                      benches also accept --json <path>, which wins.
 *                      Implies per-run telemetry.
 *   SILC_EPOCH_TICKS - ticks per telemetry epoch (default 100000)
 *   SILC_TELEMETRY   - set to 1 to record per-run time series even
 *                      without SILC_JSON
 *
 * Correctness knobs (see src/check/ and TESTING.md):
 *   SILC_CHECK       - set to 1 to run the untimed two-tier oracle in
 *                      lockstep with every run; the process panics on
 *                      the first violation.  Every scheme gets the
 *                      scheme-agnostic shadow-data invariant checker
 *                      (check/shadow.hh); SILC-FM runs additionally get
 *                      the metadata-lockstep differential oracle.
 *
 * Sampling knobs (see src/sample/sampling.hh; active in
 * bench/sampling_sweep and the benches' --sample modes):
 *   SILC_SAMPLE_PERIOD      - instructions/core between checkpoints
 *                             during functional warming (default 200000)
 *   SILC_SAMPLE_WINDOW      - detailed measurement window per
 *                             checkpoint, instructions/core (default
 *                             5000)
 *   SILC_SAMPLE_WARMUP      - detailed timing re-warm prefix before
 *                             each window, discarded (default 5000)
 *   SILC_SAMPLE_MIN_WINDOWS - windows required before CI-driven early
 *                             stopping may trigger (default 5)
 *   SILC_SAMPLE_CI_TARGET   - stop adding windows once the IPC 95% CI
 *                             half-width / mean falls to this value;
 *                             0 (default) replays every checkpoint.
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

    /** Record per-run epoch time series (SILC_TELEMETRY / SILC_JSON). */
    bool telemetry = false;
    /** Lockstep two-tier oracle on every run (SILC_CHECK). */
    bool check = false;
    /** Telemetry epoch length in ticks (SILC_EPOCH_TICKS). */
    uint64_t epoch_ticks = 100'000;

    /** Tenants per core's stream (SILC_TENANTS); 1 = single-tenant. */
    uint32_t tenants = 1;
    /** Mem ops between tenant arrivals/departures (SILC_TENANT_CHURN);
     *  0 = static tenant population. */
    uint64_t tenant_churn = 0;

    /** Read overrides from the environment. */
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
