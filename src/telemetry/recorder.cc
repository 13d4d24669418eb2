#include "telemetry/recorder.hh"

#include "common/logging.hh"

namespace silc {
namespace telemetry {

Recorder::Recorder(const TelemetryConfig &cfg, std::string run_id)
    : cfg_(cfg), sampler_(cfg.epoch_ticks),
      series_(std::make_shared<TimeSeries>())
{
    header_.run_id = std::move(run_id);
    header_.epoch_ticks = cfg_.epoch_ticks;
    if (!cfg_.jsonl_path.empty())
        sinks_.push_back(std::make_unique<JsonLinesSink>(cfg_.jsonl_path));
    if (!cfg_.csv_path.empty())
        sinks_.push_back(std::make_unique<CsvSink>(cfg_.csv_path));
}

Recorder::~Recorder() = default;

void
Recorder::addSink(std::unique_ptr<Sink> sink)
{
    silc_assert(!started_);
    sinks_.push_back(std::move(sink));
}

void
Recorder::start(EventQueue &events)
{
    silc_assert(!started_);
    started_ = true;
    events_ = &events;
    header_.probes = sampler_.names();
    series_->header = header_;
    for (auto &sink : sinks_)
        sink->begin(header_);
    events_->schedule(cfg_.epoch_ticks, [this](Tick t) { onEpoch(t); });
}

void
Recorder::record(Tick now)
{
    EpochRecord rec = sampler_.sample(now);
    for (auto &sink : sinks_)
        sink->epoch(header_, rec);
    series_->epochs.push_back(std::move(rec));
}

void
Recorder::onEpoch(Tick now)
{
    if (finished_)
        return;
    record(now);
    events_->schedule(now + cfg_.epoch_ticks,
                      [this](Tick t) { onEpoch(t); });
}

void
Recorder::finish(Tick final_tick)
{
    if (!started_ || finished_)
        return;
    finished_ = true;
    // The run usually ends between epoch boundaries; capture the tail
    // so short runs still produce at least one epoch.
    if (final_tick > sampler_.lastSampleTick())
        record(final_tick);
    for (auto &sink : sinks_)
        sink->end();
}

} // namespace telemetry
} // namespace silc
