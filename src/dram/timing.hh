/**
 * @file
 * DRAM device timing/geometry parameter sets.
 *
 * Defaults follow Table II of the SILC-FM paper: NM is HBM2-like
 * (800 MHz command clock, DDR 1.6 GT/s, 128-bit bus, 8 channels) and FM is
 * DDR3-like (800 MHz, 1.6 GT/s, 64-bit bus, 4 channels); both use 8 banks
 * per rank, 8KB row buffers, and an open-page policy.
 */

#ifndef SILC_DRAM_TIMING_HH
#define SILC_DRAM_TIMING_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace silc {
namespace dram {

/** Per-operation energy model parameters (see DramSystem::energyJoules). */
struct EnergyParams
{
    /** Energy per activate+precharge pair, picojoules. */
    double act_pre_pj = 0.0;
    /** Data transfer energy, picojoules per bit. */
    double pj_per_bit = 0.0;
    /** Static/background power per channel, milliwatts. */
    double background_mw_per_channel = 0.0;
};

/** Geometry and timing of one DRAM device type. */
struct DramTimingParams
{
    std::string name = "dram";

    /** Command clock in MHz (data rate is 2x, DDR). */
    uint32_t bus_freq_mhz = 800;
    /** Data bus width in bits. */
    uint32_t bus_width_bits = 64;
    /** Independent channels. */
    uint32_t channels = 4;
    /** Ranks per channel. */
    uint32_t ranks_per_channel = 1;
    /** Banks per rank. */
    uint32_t banks_per_rank = 8;
    /** Row buffer (page) size in bytes. */
    uint64_t row_buffer_bytes = 8192;

    /** Column access latency (CAS), in memory cycles. */
    uint32_t t_cas = 11;
    /** RAS-to-CAS delay, in memory cycles. */
    uint32_t t_rcd = 11;
    /** Row precharge, in memory cycles. */
    uint32_t t_rp = 11;
    /** Row active minimum, in memory cycles. */
    uint32_t t_ras = 28;
    /** Column-to-column delay (same bank), in memory cycles. */
    uint32_t t_ccd = 4;
    /** Refresh interval, memory cycles (0 disables refresh). */
    uint32_t t_refi = 6240;
    /** Refresh cycle time, memory cycles. */
    uint32_t t_rfc = 208;

    /** Read/write queue capacity per channel (Table II: 32). */
    uint32_t queue_depth = 32;

    /**
     * Aging bound for background (migration/swap) reads, in memory
     * cycles: one waiting longer than this is promoted ahead of demand
     * traffic so sustained demand+writeback load cannot starve
     * relocation.  0 disables promotion.  The default is generous — a
     * fairness backstop, not a scheduling knob — so steady-state
     * schedules are unchanged unless starvation actually occurs.
     */
    uint32_t bg_max_wait_mem_cycles = 4096;

    /** CPU cycles per memory (command) cycle; 3.2 GHz / 800 MHz = 4. */
    uint32_t cpu_cycles_per_mem_cycle = 4;

    EnergyParams energy;

    /** Data transfers (beats) needed to move @p bytes across the bus. */
    uint32_t
    beatsFor(uint64_t bytes) const
    {
        const uint64_t bytes_per_beat = bus_width_bits / 8;
        return static_cast<uint32_t>(
            (bytes + bytes_per_beat - 1) / bytes_per_beat);
    }

    /** Memory cycles of bus occupancy for @p bytes (DDR: 2 beats/cycle). */
    uint32_t
    burstMemCycles(uint64_t bytes) const
    {
        const uint32_t beats = beatsFor(bytes);
        return (beats + 1) / 2;
    }

    /** Convert memory cycles into CPU ticks. */
    Tick
    toTicks(uint32_t mem_cycles) const
    {
        return static_cast<Tick>(mem_cycles) * cpu_cycles_per_mem_cycle;
    }

    /** Peak bandwidth in bytes per CPU tick (all channels). */
    double peakBytesPerTick() const;

    /** Sanity checks; fatal() on inconsistencies. */
    void validate() const;
};

/** HBM generation 2 parameters per Table II / JEDEC 235A. */
DramTimingParams hbm2Params();

/** DDR3-1600 parameters per Table II. */
DramTimingParams ddr3Params();

} // namespace dram
} // namespace silc

#endif // SILC_DRAM_TIMING_HH
