/**
 * @file
 * Trace-driven core model: 4-wide dispatch/retire through a 128-entry
 * reorder buffer (Table II), with loads completing via memory-hierarchy
 * callbacks and stores retiring through an implicit store buffer.
 *
 * This is the standard "ROB-occupancy limit" model used by memory-system
 * studies: it exposes memory-level parallelism (multiple outstanding
 * misses) and stalls when the ROB fills behind a long-latency load —
 * exactly the behaviours that differentiate NM/FM placement schemes.
 */

#ifndef SILC_CPU_CORE_HH
#define SILC_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "trace/generator.hh"

namespace silc {
namespace cpu {

/** Core configuration (defaults per Table II). */
struct CoreParams
{
    uint32_t rob_entries = 128;
    uint32_t width = 4;
    /** Instructions to retire before the core reports done. */
    uint64_t instruction_budget = 1'000'000;
};

/**
 * The memory hierarchy as seen by a core.
 *
 * access() may complete synchronously (cache hits invoke @p done before
 * returning) or asynchronously.  A false return means the hierarchy is
 * out of tracking resources (MSHRs) and the core must retry next cycle.
 */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Issue a memory access.
     *
     * @param core     issuing core
     * @param vaddr    virtual byte address
     * @param pc       program counter of the instruction
     * @param is_write store?
     * @param done     completion callback (tick when data is available)
     * @param now      current tick
     * @retval true    accepted (done will fire, possibly already has)
     * @retval false   resource stall; retry later
     */
    virtual bool access(CoreId core, Addr vaddr, Addr pc, bool is_write,
                        std::function<void(Tick)> done, Tick now) = 0;
};

/** One trace-driven core. */
class Core
{
  public:
    Core(CoreId id, CoreParams params, trace::TraceSource &trace,
         MemoryPort &port);

    /** Advance one cycle: retire then dispatch. */
    void tick(Tick now);

    /**
     * Functional-warming cycle: dispatch-and-retire up to `width`
     * instructions without ROB bookkeeping.  Valid only while the
     * memory system is in functional mode, where every access is
     * accepted and completes synchronously — under that invariant the
     * access stream this emits is identical to tick()'s (width
     * instructions per core per cycle, in dispatch order), it just
     * skips the per-entry ROB and completion-callback machinery that
     * dominates warming time.  Budget pause points behave exactly as
     * with tick(): the staged slot carries across calls and the core
     * reports done() at the same retired count.
     */
    void functionalTick(Tick now);

    /** True once the instruction budget has fully retired. */
    bool done() const { return retired_ >= params_.instruction_budget; }

    /** Tick at which the budget retired (valid once done()). */
    Tick finishTick() const { return finish_tick_; }

    CoreId id() const { return id_; }
    uint64_t retired() const { return retired_; }
    uint64_t dispatched() const { return dispatched_; }
    uint64_t loads() const { return loads_; }
    uint64_t stores() const { return stores_; }

    /** Cycles in which dispatch was blocked by a full ROB. */
    uint64_t robFullCycles() const { return rob_full_cycles_; }

    /** Cycles in which dispatch was blocked by memory backpressure. */
    uint64_t memStallCycles() const { return mem_stall_cycles_; }

    /** All dispatch-blocked cycles (ROB full + memory backpressure). */
    uint64_t stallCycles() const
    {
        return rob_full_cycles_ + mem_stall_cycles_;
    }

    /** Current ROB occupancy. */
    uint32_t robOccupancy() const
    {
        return static_cast<uint32_t>(tail_seq_ - head_seq_);
    }

    /**
     * While this is above the current tick, tick() is exactly the
     * counters-only stall path (see stall_until_): the main loop may
     * fast-forward such cycles wholesale via addStalledCycles().
     */
    Tick stallUntil() const { return stall_until_; }

    /** Account @p n skipped fully-stalled cycles (see System::run). */
    void addStalledCycles(uint64_t n) { rob_full_cycles_ += n; }

    /**
     * Extend (or shrink) the retire target.  The sampling run loop
     * pauses the system at per-core instruction boundaries by walking
     * the budget forward between System::runToBudget() calls; at a
     * pause point the ROB is empty and the staged slot clear, so
     * re-entering tick() with a larger budget resumes dispatch exactly
     * where the trace left off.
     */
    void setInstructionBudget(uint64_t budget)
    {
        params_.instruction_budget = budget;
    }

  private:
    struct RobEntry
    {
        Tick ready_tick = kTickNever;
    };

    RobEntry &slot(uint64_t seq)
    {
        // ROB sizes are powers of two in practice; masking avoids a
        // 64-bit divide on the hottest accessor in the simulator.
        return rob_[rob_mask_ != 0 ? (seq & rob_mask_)
                                   : (seq % params_.rob_entries)];
    }

    void onLoadComplete(uint64_t seq, Tick when);

    CoreId id_;
    CoreParams params_;
    trace::TraceSource &trace_;
    MemoryPort &port_;

    std::vector<RobEntry> rob_;
    uint64_t rob_mask_ = 0;
    uint64_t head_seq_ = 0;
    uint64_t tail_seq_ = 0;

    /**
     * Fully-stalled fast path: while the ROB is full and the head is not
     * ready, every cycle is exactly "count a retire stall and a ROB-full
     * stall" — no retire, no fetch, no dispatch.  When tick() detects
     * that state it records the head's ready tick here and subsequent
     * ticks take the counters-only path until the head can retire.
     * onLoadComplete() clears it when the head's load returns, so a
     * kTickNever in-flight head cannot park the core forever.
     */
    Tick stall_until_ = 0;

    /** Instruction fetched but not yet dispatched (resource stall). */
    std::optional<trace::TraceInstruction> staged_;

    uint64_t retired_ = 0;
    uint64_t dispatched_ = 0;
    uint64_t loads_ = 0;
    uint64_t stores_ = 0;
    uint64_t rob_full_cycles_ = 0;
    uint64_t mem_stall_cycles_ = 0;
    Tick finish_tick_ = 0;
};

} // namespace cpu
} // namespace silc

#endif // SILC_CPU_CORE_HH
