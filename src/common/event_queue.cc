#include "common/event_queue.hh"

#include <algorithm>
#include <cinttypes>

#include "common/logging.hh"

namespace silc {

namespace {

/** Enough for a typical in-flight window; grows geometrically after. */
constexpr size_t kInitialCapacity = 256;

} // namespace

void
EventQueue::schedule(Tick when, EventCallback cb)
{
    if (when < last_run_tick_) {
        panic("scheduling event in the past (when=%" PRIu64
              ", now=%" PRIu64 ")", when, last_run_tick_);
    }
    if (heap_.capacity() == 0)
        heap_.reserve(kInitialCapacity);
    heap_.push_back(Entry{when, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

size_t
EventQueue::runDueSlow(Tick now)
{
    last_run_tick_ = now;
    size_t count = 0;
    while (!heap_.empty() && heap_.front().when <= now) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        Entry entry = std::move(heap_.back());
        heap_.pop_back();
        entry.cb(entry.when);
        ++count;
        ++executed_;
    }
    return count;
}

Tick
EventQueue::nextEventTick() const
{
    return heap_.empty() ? kTickNever : heap_.front().when;
}

} // namespace silc
