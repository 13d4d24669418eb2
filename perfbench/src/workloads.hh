/**
 * @file
 * The benchmark's workloads: explicit configurations (no SILC_* variable
 * can change them), one untimed repetition, the traced repetition, the
 * standalone layer probes and the short oracle-checked runs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "layers.hh"
#include "sample/sampling.hh"
#include "sim/experiment.hh"

namespace perfbench {

enum class Workload { Matrix, StreamBw, SampledMcf };

/** Full is the benchmarked size; Tiny is the self-check size. */
enum class Scale { Full, Tiny };

struct Params
{
    Workload workload = Workload::Matrix;
    uint64_t seed = 7;
    Scale scale = Scale::Full;
};

/** fatal() on an unknown name. */
Workload parseWorkload(const std::string &name);
const char *workloadName(Workload w);

/** Fixed pool width of the workload, capped by the host's CPUs. */
unsigned poolWidth(Workload w);

/** Every System configuration the workload constructs, in order. */
std::vector<silc::sim::SystemConfig> setupConfigs(const Params &p);

/** One untimed repetition: the results, in submission order. */
struct RunOutput
{
    std::vector<silc::sim::SimResult> results;
    double wall_s = 0.0;
    uint64_t jobs = 0;
};

RunOutput runWorkload(const Params &p);

/** Simulated instructions / ticks the results stand for. */
double simInstructions(const RunOutput &out);
double simTicks(const RunOutput &out);

/**
 * Correctness of one repetition: empty when every run retired its full
 * budget without hitting max_ticks, else a description.
 */
std::string checkBudgets(const Params &p, const RunOutput &out);

/** The model's own outputs (simulated, not host time), by name. */
std::vector<std::pair<std::string, double>>
modelOutputs(const Params &p, const RunOutput &out);

/** Field-by-field SimResult comparison, scheme name excepted; empty
 *  when equal. */
std::string diffResults(const silc::sim::SimResult &a,
                        const silc::sim::SimResult &b);

/** Host-time figures of the sampling layer, from the traced copy. */
struct SampleTotals
{
    double warm_s = 0.0;
    uint64_t warm_instructions = 0;  ///< all cores
    double ckpt_s = 0.0;
    uint64_t ckpt_bytes = 0;
    uint32_t checkpoints = 0;
    double replay_s = 0.0;
    uint32_t windows = 0;
};

/** Per-job host times of a pool-driven phase. */
struct PoolTimes
{
    std::vector<double> job_s;
    unsigned threads = 1;
    double wall_s = 0.0;
};

/** Everything one traced repetition measured. */
struct TraceOutput
{
    RunOutput run;          ///< results in the untimed order
    LayerTotals layers;
    PoolTimes pool;
    SampleTotals sample;    ///< sampled_mcf only (see sampleProbe)
};

TraceOutput traceWorkload(const Params &p);

/**
 * The functional-warming replay of the workload's configuration
 * (sampled_mcf: the workload itself), traced from outside.  Also
 * reports an error when its checkpoint count or result differs from
 * SamplingController's.
 */
SampleTotals sampleProbe(const Params &p, std::string &error);

/** ns per SyntheticGenerator::next on the workload's profiles. */
double traceProbeNsPerInstr(const Params &p);

/** ns per cache::Cache::access of the workload's address stream
 *  replayed through the default L1d/L2 geometry. */
double cacheProbeNsPerAccess(const Params &p);

/**
 * Short check=true runs (shadow oracle on every scheme plus the SILC-FM
 * differential oracle) of the workload's configuration; a violation
 * panics.  @return the number of runs, with @p error set on a budget
 * failure.
 */
uint64_t runChecks(const Params &p, std::string &error);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
