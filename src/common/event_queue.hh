/**
 * @file
 * A deterministic discrete-event queue driven in lockstep with the global
 * cycle loop.
 *
 * Components schedule callbacks at absolute ticks; the simulator drains all
 * events due at the current tick each cycle.  Ties are broken by insertion
 * order so simulations are bit-exact across runs.
 */

#ifndef SILC_COMMON_EVENT_QUEUE_HH
#define SILC_COMMON_EVENT_QUEUE_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/small_function.hh"
#include "common/types.hh"

namespace silc {

/**
 * Callback invoked when an event fires; receives the firing tick.
 *
 * A SmallFunction rather than std::function: completion lambdas capture
 * a DemandCallback plus a few words of context, which overflows
 * std::function's tiny inline buffer and would heap-allocate on every
 * schedule() — the hottest allocation site in the simulator (see
 * BM_EventSchedule* in bench/micro_structures.cc).
 */
using EventCallback = SmallFunction<void(Tick), 64>;

/** Handle naming one cancellable event (see scheduleCancellable()). */
using EventId = uint64_t;

/** Sentinel for "no event" / "already fired". */
constexpr EventId kEventIdInvalid = ~EventId(0);

/**
 * Min-heap of timed callbacks with FIFO tie-breaking.
 *
 * The queue is intentionally simple: the simulator's hot paths (cores and
 * memory controllers) tick explicitly in the main loop, so only
 * transaction-completion style events and the DRAM controllers' re-armed
 * wakeups land here.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * @pre when must not be in the past relative to the last runDue() tick.
     */
    void schedule(Tick when, EventCallback cb);

    /** Schedule @p cb to run @p delay ticks after @p now. */
    void
    scheduleIn(Tick now, Tick delay, EventCallback cb)
    {
        schedule(now + delay, std::move(cb));
    }

    /**
     * Like schedule(), but returns a handle usable with cancel().  The
     * handle is consumed when the event fires; callers that re-arm must
     * forget it at the top of the callback (see ChannelController).
     */
    EventId scheduleCancellable(Tick when, EventCallback cb);

    /**
     * Cancel a pending cancellable event.  The entry stays in the heap
     * and is discarded (without running) when it reaches the front —
     * lazy deletion, so cancel is O(1).
     *
     * @pre id names an event that has not fired yet (callers must drop
     *      their handle when the callback runs); cancelling a fired id
     *      would leak a tombstone until clear().
     */
    void cancel(EventId id);

    /**
     * Run every event due at or before @p now, in (tick, insertion) order.
     * Events scheduled while draining for the same tick also run.
     *
     * Inline fast path: the per-cycle call from the simulator's main loop
     * is almost always a no-op, so the empty/not-due check must not cost
     * a function call.
     *
     * @return number of events executed.
     */
    size_t
    runDue(Tick now)
    {
        if (heap_.empty() || heap_.front().when > now) {
            last_run_tick_ = now;
            return 0;
        }
        return runDueSlow(now);
    }

    /** Tick of the earliest pending event, or kTickNever when empty. */
    Tick nextEventTick() const;

    /** True when no events are pending (cancelled entries count). */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    size_t size() const { return heap_.size(); }

    /** Total number of events ever executed. */
    uint64_t executed() const { return executed_; }

    /** Total number of events ever cancelled. */
    uint64_t cancelled() const { return cancelled_total_; }

    /** Drop all pending events (used between experiment runs). */
    void clear();

  private:
    struct Entry
    {
        Tick when;
        uint64_t seq;
        EventCallback cb;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    size_t runDueSlow(Tick now);

    // An explicit vector heap (std::push_heap/pop_heap) instead of
    // std::priority_queue: the storage can be reserved up front and its
    // capacity survives clear(), and popped entries move out cleanly
    // without the const_cast that priority_queue::top() forces.
    std::vector<Entry> heap_;
    /** Sequence numbers of cancelled-but-not-yet-popped entries. */
    std::unordered_set<uint64_t> tombstones_;
    uint64_t next_seq_ = 0;
    uint64_t executed_ = 0;
    uint64_t cancelled_total_ = 0;
    Tick last_run_tick_ = 0;
};

} // namespace silc

#endif // SILC_COMMON_EVENT_QUEUE_HH
