/**
 * @file
 * The probe registry and epoch snapshot engine.
 *
 * Components register probes — named read functions over their live
 * counters — once at attach time; every epoch the Sampler reads all of
 * them and derives the per-epoch view:
 *
 *   Gauge    raw value at sample time            (queue depth, occupancy)
 *   Counter  delta since the previous sample     (swaps, bytes, retires)
 *   Rate     delta / elapsed ticks               (IPC, bus utilization)
 *   Ratio    delta(num) / delta(den)             (hit rates, Equation 1)
 *
 * Counter-style derivations make monotonic whole-run counters — which is
 * what every component in this codebase already keeps — directly usable
 * as phase-resolved series without the components tracking epochs
 * themselves.  A stats::Distribution registers as p50/p95/p99
 * percentile gauges rather than raw buckets.
 */

#ifndef SILC_TELEMETRY_SAMPLER_HH
#define SILC_TELEMETRY_SAMPLER_HH

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "telemetry/series.hh"

namespace silc {
namespace telemetry {

class Sampler
{
  public:
    /** Reads one probe value; must stay valid for the Sampler's life. */
    using ReadFn = std::function<double()>;

    /** Raw value at sample time. */
    void addGauge(std::string name, ReadFn read);

    /** Per-epoch delta of a monotonic counter. */
    void addCounter(std::string name, ReadFn read);

    /** Per-epoch delta divided by the ticks the epoch covered. */
    void addRate(std::string name, ReadFn read);

    /**
     * delta(@p num) / delta(@p den) within the epoch; 0 when the
     * denominator did not move.
     */
    void addRatio(std::string name, ReadFn num, ReadFn den);

    /**
     * Register @p dist as three percentile gauges (<name>.p50/.p95/.p99,
     * cumulative over the run so far).  The series thus carries
     * percentiles, never bucket arrays.  @p dist must outlive the Sampler.
     */
    void addDistribution(const std::string &name,
                         const stats::Distribution &dist);

    /** Probe names in registration order. */
    const std::vector<std::string> &names() const { return names_; }

    /** Tick of the previous sample (0 before the first). */
    Tick lastSampleTick() const { return last_tick_; }

    /** Epochs sampled so far. */
    uint64_t epochsSampled() const { return epochs_; }

    /**
     * Snapshot every probe at tick @p now, deriving deltas/rates against
     * the previous sample, and advance the epoch state.
     */
    EpochRecord sample(Tick now);

  private:
    enum class Kind { Gauge, Counter, Rate, Ratio };

    struct Probe
    {
        Kind kind;
        ReadFn read;
        ReadFn read_den;    ///< Ratio only
        double last = 0.0;
        double last_den = 0.0;
    };

    void add(std::string name, Kind kind, ReadFn read,
             ReadFn read_den = nullptr);

    Tick last_tick_ = 0;
    uint64_t epochs_ = 0;
    std::vector<std::string> names_;
    std::vector<Probe> probes_;
};

} // namespace telemetry
} // namespace silc

#endif // SILC_TELEMETRY_SAMPLER_HH
