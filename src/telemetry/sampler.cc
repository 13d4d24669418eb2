#include "telemetry/sampler.hh"

#include "common/logging.hh"

namespace silc {
namespace telemetry {

void
Sampler::add(std::string name, Kind kind, ReadFn read, ReadFn read_den)
{
    silc_assert(read != nullptr);
    for (const auto &n : names_) {
        if (n == name)
            panic("telemetry: duplicate probe '%s'", name.c_str());
    }
    names_.push_back(std::move(name));
    Probe p;
    p.kind = kind;
    p.read = std::move(read);
    p.read_den = std::move(read_den);
    probes_.push_back(std::move(p));
}

void
Sampler::addGauge(std::string name, ReadFn read)
{
    add(std::move(name), Kind::Gauge, std::move(read));
}

void
Sampler::addCounter(std::string name, ReadFn read)
{
    add(std::move(name), Kind::Counter, std::move(read));
}

void
Sampler::addRate(std::string name, ReadFn read)
{
    add(std::move(name), Kind::Rate, std::move(read));
}

void
Sampler::addRatio(std::string name, ReadFn num, ReadFn den)
{
    silc_assert(den != nullptr);
    add(std::move(name), Kind::Ratio, std::move(num), std::move(den));
}

void
Sampler::addDistribution(const std::string &name,
                         const stats::Distribution &dist)
{
    const stats::Distribution *d = &dist;
    addGauge(name + ".p50", [d] { return d->percentile(0.50); });
    addGauge(name + ".p95", [d] { return d->percentile(0.95); });
    addGauge(name + ".p99", [d] { return d->percentile(0.99); });
}

EpochRecord
Sampler::sample(Tick now)
{
    EpochRecord rec;
    rec.index = epochs_++;
    rec.tick = now;
    rec.elapsed = now >= last_tick_ ? now - last_tick_ : 0;
    rec.values.reserve(probes_.size());

    for (Probe &p : probes_) {
        const double v = p.read();
        double out = 0.0;
        switch (p.kind) {
          case Kind::Gauge:
            out = v;
            break;
          case Kind::Counter:
            out = v - p.last;
            break;
          case Kind::Rate:
            out = rec.elapsed == 0
                ? 0.0
                : (v - p.last) / static_cast<double>(rec.elapsed);
            break;
          case Kind::Ratio: {
            const double den = p.read_den();
            const double dd = den - p.last_den;
            out = dd == 0.0 ? 0.0 : (v - p.last) / dd;
            p.last_den = den;
            break;
          }
        }
        p.last = v;
        rec.values.push_back(out);
    }

    last_tick_ = now;
    return rec;
}

} // namespace telemetry
} // namespace silc
