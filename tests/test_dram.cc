/**
 * @file
 * Unit tests for the DRAM model: timing parameter sets, the bank state
 * machine (tRCD/tCAS/tRP/tRAS/tCCD), FR-FCFS scheduling, write drain,
 * address decode, refresh, and energy accounting.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/bank.hh"
#include "dram/controller.hh"
#include "dram/dram_system.hh"
#include "dram/timing.hh"

using namespace silc;
using namespace silc::dram;

namespace {

DramTimingParams
simpleParams()
{
    DramTimingParams p = ddr3Params();
    p.name = "testdram";
    p.channels = 2;
    p.t_refi = 0;   // disable refresh unless a test wants it
    return p;
}

} // namespace

// ---- timing params -------------------------------------------------------

TEST(Timing, Table2Defaults)
{
    DramTimingParams hbm = hbm2Params();
    EXPECT_EQ(hbm.bus_width_bits, 128u);
    EXPECT_EQ(hbm.channels, 8u);
    EXPECT_EQ(hbm.banks_per_rank, 8u);
    EXPECT_EQ(hbm.row_buffer_bytes, 8192u);
    EXPECT_EQ(hbm.bus_freq_mhz, 800u);

    DramTimingParams ddr = ddr3Params();
    EXPECT_EQ(ddr.bus_width_bits, 64u);
    EXPECT_EQ(ddr.channels, 4u);
    EXPECT_EQ(ddr.t_cas, 11u);
    EXPECT_EQ(ddr.t_ras, 28u);
}

TEST(Timing, BurstMath)
{
    DramTimingParams hbm = hbm2Params();
    // 64B over a 128-bit bus: 4 beats, 2 memory cycles (DDR).
    EXPECT_EQ(hbm.beatsFor(64), 4u);
    EXPECT_EQ(hbm.burstMemCycles(64), 2u);

    DramTimingParams ddr = ddr3Params();
    // 64B over a 64-bit bus: 8 beats, 4 memory cycles.
    EXPECT_EQ(ddr.beatsFor(64), 8u);
    EXPECT_EQ(ddr.burstMemCycles(64), 4u);
    // Partial bursts round up.
    EXPECT_EQ(ddr.beatsFor(8), 1u);
    EXPECT_EQ(ddr.burstMemCycles(8), 1u);
}

TEST(Timing, TickConversion)
{
    DramTimingParams p = ddr3Params();
    EXPECT_EQ(p.toTicks(1), 4u);   // 3.2 GHz CPU / 800 MHz memory
    EXPECT_EQ(p.toTicks(11), 44u);
}

TEST(Timing, PeakBandwidth)
{
    DramTimingParams hbm = hbm2Params();
    // 8 channels x 32 B/mem-cycle / 4 ticks = 64 B/tick.
    EXPECT_DOUBLE_EQ(hbm.peakBytesPerTick(), 64.0);
    DramTimingParams ddr = ddr3Params();
    EXPECT_DOUBLE_EQ(ddr.peakBytesPerTick(), 16.0);
}

// ---- bank state machine ---------------------------------------------------

TEST(Bank, FirstAccessPaysActivation)
{
    DramTimingParams p = simpleParams();
    Bank bank;
    const Tick burst = p.toTicks(p.burstMemCycles(64));
    BankService svc = bank.serve(5, 0, burst, 0, p);
    EXPECT_FALSE(svc.row_hit);
    EXPECT_TRUE(svc.activated);
    // tRCD + tCAS before data.
    EXPECT_EQ(svc.data_start, p.toTicks(p.t_rcd + p.t_cas));
    EXPECT_EQ(svc.data_done, svc.data_start + burst);
    EXPECT_EQ(bank.openRow(), 5);
}

TEST(Bank, RowHitPaysOnlyCas)
{
    DramTimingParams p = simpleParams();
    Bank bank;
    const Tick burst = p.toTicks(p.burstMemCycles(64));
    bank.serve(5, 0, burst, 0, p);
    const Tick now = 10'000;
    BankService svc = bank.serve(5, now, burst, 0, p);
    EXPECT_TRUE(svc.row_hit);
    EXPECT_FALSE(svc.activated);
    EXPECT_EQ(svc.data_start, now + p.toTicks(p.t_cas));
}

TEST(Bank, RowConflictPaysPrechargeAndRas)
{
    DramTimingParams p = simpleParams();
    Bank bank;
    const Tick burst = p.toTicks(p.burstMemCycles(64));
    bank.serve(5, 0, burst, 0, p);
    // Conflict immediately: precharge must wait for tRAS from the
    // activation at tick 0.
    BankService svc = bank.serve(9, 0, burst, 0, p);
    EXPECT_FALSE(svc.row_hit);
    EXPECT_TRUE(svc.activated);
    const Tick pre_start = p.toTicks(p.t_ras);
    const Tick expected = pre_start + p.toTicks(p.t_rp) +
        p.toTicks(p.t_rcd) + p.toTicks(p.t_cas);
    EXPECT_EQ(svc.data_start, expected);
    EXPECT_EQ(bank.openRow(), 9);
}

TEST(Bank, BackToBackRowHitsPipelineAtTccd)
{
    DramTimingParams p = simpleParams();
    Bank bank;
    const Tick burst = p.toTicks(p.burstMemCycles(64));
    BankService first = bank.serve(3, 0, burst, 0, p);
    // Bank accepts the next CAS tCCD after the previous one, well before
    // the previous burst completes.
    EXPECT_LT(bank.readyAt(), first.data_done);
    BankService second = bank.serve(3, bank.readyAt(), burst,
                                    first.data_done, p);
    EXPECT_TRUE(second.row_hit);
    // The shared bus defers the second burst to after the first.
    EXPECT_GE(second.data_start, first.data_done);
}

TEST(Bank, BusContentionDelaysData)
{
    DramTimingParams p = simpleParams();
    Bank bank;
    const Tick burst = p.toTicks(p.burstMemCycles(64));
    const Tick bus_free = 100'000;
    BankService svc = bank.serve(1, 0, burst, bus_free, p);
    EXPECT_EQ(svc.data_start, bus_free);
}

TEST(Bank, RefreshClosesRowAndBlocks)
{
    DramTimingParams p = simpleParams();
    Bank bank;
    const Tick burst = p.toTicks(p.burstMemCycles(64));
    bank.serve(7, 0, burst, 0, p);
    EXPECT_EQ(bank.openRow(), 7);
    const Tick now = 50'000;
    bank.refresh(now, p);
    EXPECT_EQ(bank.openRow(), -1);
    EXPECT_GE(bank.readyAt(), now + p.toTicks(p.t_rfc));
}

// ---- address decode -------------------------------------------------------

TEST(Decode, ChannelInterleavesAtSubblock)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    AddressDecode d0 = sys.decode(0);
    AddressDecode d1 = sys.decode(64);
    EXPECT_NE(d0.channel, d1.channel);
    EXPECT_EQ(sys.decode(128).channel, d0.channel);   // 2 channels
}

TEST(Decode, CoversAllBanks)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    // Bank bits sit above channels (2) and columns (128): the bank
    // advances every 2 * 128 * 64B = 16KB.
    std::set<uint32_t> banks;
    for (Addr a = 0; a < 16_MiB; a += 16 * 1024)
        banks.insert(sys.decode(a).bank);
    EXPECT_EQ(banks.size(), 8u);
}

TEST(Decode, DistinctAddressesDistinctPlacement)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    std::set<std::tuple<uint32_t, uint32_t, int64_t, uint32_t>> seen;
    for (Addr a = 0; a < 1_MiB; a += 64) {
        AddressDecode d = sys.decode(a);
        auto key = std::make_tuple(d.channel, d.bank, d.row, d.column);
        EXPECT_TRUE(seen.insert(key).second)
            << "collision at addr " << a;
    }
}

TEST(Decode, OutOfRangeAddressPanics)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 1_MiB, events);
    DramRequest req;
    req.addr = 2_MiB;
    EXPECT_DEATH(sys.issue(std::move(req), 0), "out of range");
}

// ---- system-level behaviour ------------------------------------------------

namespace {

/** Issue a read and step the system until it completes. */
Tick
runRead(DramSystem &sys, EventQueue &events, Addr addr, Tick start)
{
    Tick completed = kTickNever;
    DramRequest req;
    req.addr = addr;
    req.on_complete = [&](Tick t) { completed = t; };
    sys.issue(std::move(req), start);
    for (Tick t = start; t < start + 100'000 && completed == kTickNever;
         ++t) {
        sys.tick(t);
        events.runDue(t);
    }
    EXPECT_NE(completed, kTickNever);
    return completed;
}

/** Issue @p lines 64B requests at tick @p start and run @p sys until it
 *  is idle; returns the first idle tick. */
Tick
moveLines(DramSystem &sys, EventQueue &events, uint32_t lines,
          bool is_write, Tick start)
{
    for (uint32_t i = 0; i < lines; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.is_write = is_write;
        sys.issue(std::move(req), start);
    }
    Tick t = start;
    for (; t < start + 500'000 && !sys.idle(); ++t) {
        sys.tick(t);
        events.runDue(t);
    }
    EXPECT_TRUE(sys.idle());
    return t;
}

} // namespace

TEST(DramSystem, ReadCompletesWithPlausibleLatency)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    const Tick done = runRead(sys, events, 4096, 0);
    const DramTimingParams &p = sys.params();
    const Tick min_lat =
        p.toTicks(p.t_rcd + p.t_cas + p.burstMemCycles(64));
    EXPECT_GE(done, min_lat);
    EXPECT_LT(done, min_lat + 100);
    EXPECT_EQ(sys.readsServed(), 1u);
}

TEST(DramSystem, RowHitsFasterThanConflicts)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    const Tick t1 = runRead(sys, events, 0, 0);
    // Same row (next column): row hit.
    const Tick t2 = runRead(sys, events, 128, t1 + 1);
    // Same bank, different row: conflict.  With 2 channels, 8 banks and
    // 128-column rows the same (channel, bank) recurs every
    // 2*128*8*64B = 128KB; bump the row by going 8 * 128KB further.
    const Tick t3 = runRead(sys, events, 8u * 128 * 1024, t2 + 1);
    const Tick hit_lat = t2 - (t1 + 1);
    const Tick conflict_lat = t3 - (t2 + 1);
    EXPECT_LT(hit_lat, conflict_lat);
    EXPECT_GE(sys.rowHits(), 1u);
    EXPECT_GE(sys.rowMisses(), 1u);
}

TEST(DramSystem, DemandPriorityOverMigration)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    // Flood one channel with migration reads, then issue one demand
    // read; the demand must complete before most of the migrations.
    std::vector<Tick> migration_done;
    for (int i = 0; i < 16; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 128 * 1024;   // same channel 0
        req.traffic = TrafficClass::Migration;
        req.on_complete = [&](Tick t) { migration_done.push_back(t); };
        sys.issue(std::move(req), 0);
    }
    Tick demand_done = kTickNever;
    DramRequest demand;
    demand.addr = 16u * 128 * 1024;
    demand.traffic = TrafficClass::Demand;
    demand.on_complete = [&](Tick t) { demand_done = t; };
    sys.issue(std::move(demand), 0);

    for (Tick t = 0; t < 200'000; ++t) {
        sys.tick(t);
        events.runDue(t);
        if (demand_done != kTickNever && migration_done.size() == 16)
            break;
    }
    ASSERT_NE(demand_done, kTickNever);
    ASSERT_EQ(migration_done.size(), 16u);
    size_t after = 0;
    for (Tick t : migration_done) {
        if (t > demand_done)
            ++after;
    }
    // The demand read overtakes the bulk of the earlier migrations.
    EXPECT_GE(after, 12u);
}

TEST(DramSystem, WritesDrainEventually)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    for (int i = 0; i < 40; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.is_write = true;
        sys.issue(std::move(req), 0);
    }
    for (Tick t = 0; t < 500'000 && !sys.idle(); ++t) {
        sys.tick(t);
        events.runDue(t);
    }
    EXPECT_TRUE(sys.idle());
    EXPECT_EQ(sys.writesServed(), 40u);
}

TEST(DramSystem, TrafficClassAccounting)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    DramRequest demand;
    demand.addr = 0;
    sys.issue(std::move(demand), 0);

    DramRequest mig;
    mig.addr = 64;
    mig.is_write = true;
    mig.traffic = TrafficClass::Migration;
    sys.issue(std::move(mig), 0);

    const auto d = static_cast<size_t>(TrafficClass::Demand);
    const auto m = static_cast<size_t>(TrafficClass::Migration);
    EXPECT_EQ(sys.traffic().read[d], 64u);
    EXPECT_EQ(sys.traffic().write[m], 64u);
    EXPECT_EQ(sys.traffic().total(), 128u);
    EXPECT_EQ(sys.demandBytes(), 64u);
}

TEST(DramSystem, ForcedChannelIsHonoured)
{
    EventQueue events;
    DramTimingParams p = simpleParams();
    DramSystem sys(p, 16_MiB, events);
    // Address 64 decodes to channel 1; force channel 0 and verify the
    // request completes (served by the forced channel).
    Tick done = kTickNever;
    DramRequest req;
    req.addr = 64;
    req.force_channel = 0;
    req.on_complete = [&](Tick t) { done = t; };
    sys.issue(std::move(req), 0);
    for (Tick t = 0; t < 100'000 && done == kTickNever; ++t) {
        sys.tick(t);
        events.runDue(t);
    }
    EXPECT_NE(done, kTickNever);
}

TEST(DramSystem, RefreshClosesOpenRows)
{
    EventQueue events;
    DramTimingParams p = simpleParams();
    p.t_refi = 1000;   // refresh boundary at tick 4000
    DramSystem sys(p, 16_MiB, events);
    // Open a row well before the refresh boundary.
    runRead(sys, events, 0, 0);
    // A same-row access after the refresh boundary re-activates.
    runRead(sys, events, 128, 10'000);
    EXPECT_EQ(sys.rowHits(), 0u);
    EXPECT_EQ(sys.rowMisses(), 2u);

    // Without refresh, the second access would have been a row hit.
    EventQueue events2;
    DramTimingParams p2 = simpleParams();
    DramSystem sys2(p2, 16_MiB, events2);
    runRead(sys2, events2, 0, 0);
    runRead(sys2, events2, 128, 10'000);
    EXPECT_EQ(sys2.rowHits(), 1u);
}

TEST(DramSystem, BusUtilizationBounded)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    const Tick t = moveLines(sys, events, 100, false, 0);
    const double util = sys.busUtilization(t);
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
}

// ---- energy ----------------------------------------------------------------

TEST(Energy, DynamicScalesWithTraffic)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    const Tick t = moveLines(sys, events, 100, false, 0);
    const double base = sys.dynamicEnergyJoules();
    EXPECT_GT(base, 0.0);
    moveLines(sys, events, 100, true, t);
    EXPECT_GT(sys.dynamicEnergyJoules(), base);
}

TEST(Energy, BackgroundScalesWithTime)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    const double e1 = sys.energyJoules(3'200'000, 3.2e9);   // 1 ms
    const double e2 = sys.energyJoules(6'400'000, 3.2e9);   // 2 ms
    EXPECT_NEAR(e2, 2.0 * e1, 1e-12);
}

TEST(Energy, NmCheaperPerBitThanFm)
{
    // The premise of the paper's EDP result: die-stacked DRAM moves
    // bits much more cheaply than off-chip DDR.
    EventQueue nm_events, fm_events;
    DramSystem nm(hbm2Params(), 16_MiB, nm_events);
    DramSystem fm(ddr3Params(), 16_MiB, fm_events);
    moveLines(nm, nm_events, 256, false, 0);
    moveLines(fm, fm_events, 256, false, 0);
    EXPECT_EQ(nm.traffic().total(), fm.traffic().total());
    EXPECT_LT(nm.dynamicEnergyJoules(), fm.dynamicEnergyJoules());
}

TEST(Energy, TotalAddsBackgroundToDynamic)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    runRead(sys, events, 0, 0);
    EXPECT_GT(sys.dynamicEnergyJoules(), 0.0);
    EXPECT_GT(sys.energyJoules(1000, 3.2e9),
              sys.dynamicEnergyJoules());
}

// ---- controller scheduling details ------------------------------------------

TEST(Controller, WritesUseIdleSlots)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    // Only writes queued: they issue without needing a drain trigger.
    for (int i = 0; i < 4; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        req.is_write = true;
        sys.issue(std::move(req), 0);
    }
    for (Tick t = 0; t < 100'000 && !sys.idle(); ++t) {
        sys.tick(t);
        events.runDue(t);
    }
    EXPECT_EQ(sys.writesServed(), 4u);
}

TEST(Controller, BackgroundReadsEventuallyComplete)
{
    EventQueue events;
    DramSystem sys(simpleParams(), 16_MiB, events);
    // Interleave demand and migration reads; both classes must finish.
    int migration_done = 0, demand_done = 0;
    for (int i = 0; i < 8; ++i) {
        DramRequest mig;
        mig.addr = static_cast<Addr>(i) * 4096;
        mig.traffic = TrafficClass::Migration;
        mig.on_complete = [&](Tick) { ++migration_done; };
        sys.issue(std::move(mig), 0);

        DramRequest dem;
        dem.addr = static_cast<Addr>(i) * 4096 + 2048;
        dem.traffic = TrafficClass::Demand;
        dem.on_complete = [&](Tick) { ++demand_done; };
        sys.issue(std::move(dem), 0);
    }
    for (Tick t = 0;
         t < 1'000'000 && !(sys.idle() && events.empty()); ++t) {
        sys.tick(t);
        events.runDue(t);
    }
    EXPECT_EQ(migration_done, 8);
    EXPECT_EQ(demand_done, 8);
}

TEST(Controller, LargerBurstsOccupyBusLonger)
{
    EventQueue events;
    DramTimingParams p = simpleParams();
    p.channels = 1;
    DramSystem sysA(p, 16_MiB, events);

    // Two back-to-back row-hit reads of 64B vs of 2048B: completion gap
    // reflects the burst length.
    auto run_two = [&events](DramSystem &sys, uint32_t bytes) {
        std::vector<Tick> done;
        for (int i = 0; i < 2; ++i) {
            DramRequest req;
            req.addr = static_cast<Addr>(i) * bytes;
            req.bytes = bytes;
            req.on_complete = [&](Tick t) { done.push_back(t); };
            sys.issue(std::move(req), 0);
        }
        for (Tick t = 0; t < 1'000'000 && done.size() < 2; ++t) {
            sys.tick(t);
            events.runDue(t);
        }
        return done[1] - done[0];
    };

    const Tick gap64 = run_two(sysA, 64);
    DramSystem sysB(p, 16_MiB, events);
    const Tick gap2k = run_two(sysB, 2048);
    EXPECT_GT(gap2k, gap64);
}

TEST(Controller, QueueDepthObservable)
{
    EventQueue events;
    DramTimingParams p = simpleParams();
    p.channels = 1;
    DramSystem sys(p, 16_MiB, events);
    for (int i = 0; i < 10; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 64;
        sys.issue(std::move(req), 0);
    }
    EXPECT_EQ(sys.queuedRequests(), 10u);
    for (Tick t = 0; t < 1'000'000 && !sys.idle(); ++t) {
        sys.tick(t);
        events.runDue(t);
    }
    EXPECT_EQ(sys.queuedRequests(), 0u);
}

TEST(Controller, AvgReadQueueDelayGrowsUnderLoad)
{
    EventQueue events;
    DramTimingParams p = simpleParams();
    p.channels = 1;
    DramSystem light(p, 16_MiB, events);
    runRead(light, events, 0, 0);
    const double d_light = light.avgReadQueueDelay();

    DramSystem heavy(p, 16_MiB, events);
    for (int i = 0; i < 64; ++i) {
        DramRequest req;
        req.addr = static_cast<Addr>(i) * 128 * 1024;   // row conflicts
        heavy.issue(std::move(req), 0);
    }
    for (Tick t = 0; t < 4'000'000 && !heavy.idle(); ++t) {
        heavy.tick(t);
        events.runDue(t);
    }
    EXPECT_GT(heavy.avgReadQueueDelay(), d_light);
}

// ---- traffic-class name plumbing -------------------------------------------------

TEST(TrafficClass, NamesAreStable)
{
    EXPECT_STREQ(trafficClassName(TrafficClass::Demand), "demand");
    EXPECT_STREQ(trafficClassName(TrafficClass::Migration), "migration");
    EXPECT_STREQ(trafficClassName(TrafficClass::Metadata), "metadata");
    EXPECT_STREQ(trafficClassName(TrafficClass::Writeback), "writeback");
}

TEST(Timing, ValidationCatchesBadGeometry)
{
    DramTimingParams p = ddr3Params();
    p.channels = 3;   // not a power of two
    EXPECT_DEATH(p.validate(), "powers of two");
    DramTimingParams q = ddr3Params();
    q.t_cas = 0;
    EXPECT_DEATH(q.validate(), "timing");
}

TEST(DramSystem, CapacityMustBePageMultiple)
{
    EventQueue events;
    EXPECT_DEATH(DramSystem(ddr3Params(), 1000, events), "multiple");
}

// ---- event-driven controller wakeups -------------------------------------
//
// The controller's never-miss invariant: whenever anything actionable
// exists at tick T (a request could issue, a refresh is due, drain state
// could flip, a background read out-ages its bound), nextScanAt() <= T.
// The strongest check is differential: a "polled" driver that scans every
// memory cycle — the historical behaviour — must produce exactly the
// same issued schedule, completions, and statistics as an event-driven
// driver that scans only at the pending wakeup.

namespace {

/** One completion observed through a controller's event queue. */
struct Completion
{
    Tick tick;
    Addr addr;
    bool operator==(const Completion &) const = default;
};

/** Drives one ChannelController either polled or event-driven. */
struct ControllerDriver
{
    explicit ControllerDriver(const DramTimingParams &p)
        : params(p), ctrl(p, events)
    {
    }

    void
    enqueue(Addr addr, bool is_write, TrafficClass cls, uint32_t bank,
            int64_t row, Tick now, bool event_driven)
    {
        DecodedRequest dec;
        dec.req.addr = addr;
        dec.req.is_write = is_write;
        dec.req.traffic = cls;
        if (!is_write) {
            dec.req.on_complete = [this, addr](Tick t) {
                completions.push_back({t, addr});
            };
        }
        dec.bank = bank;
        dec.row = row;
        ctrl.enqueue(std::move(dec), now);
        if (event_driven) {
            // Mirror DramSystem::issue(): the scan phase for this tick
            // has already run, so a boundary tick arms the next boundary.
            const Tick step = params.toTicks(1);
            const Tick rem = now % step;
            ctrl.requestScanAt(rem == 0 ? now + step
                                        : now + (step - rem));
        }
    }

    void
    step(Tick now, bool event_driven)
    {
        if (event_driven) {
            if (now >= ctrl.nextScanAt())
                ctrl.scan(now);
        } else if (now % params.toTicks(1) == 0) {
            ctrl.scan(now);
        }
        events.runDue(now);
    }

    DramTimingParams params;
    EventQueue events;
    ChannelController ctrl;
    std::vector<Completion> completions;
};

} // namespace

TEST(EventDriven, MatchesPolledControllerAcrossRandomTimings)
{
    Rng cfg_rng(20260805);
    for (int trial = 0; trial < 10; ++trial) {
        DramTimingParams p = simpleParams();
        p.t_cas = 4 + static_cast<uint32_t>(cfg_rng.below(12));
        p.t_rcd = 4 + static_cast<uint32_t>(cfg_rng.below(12));
        p.t_rp = 4 + static_cast<uint32_t>(cfg_rng.below(12));
        p.t_ras = p.t_rcd + p.t_cas +
            static_cast<uint32_t>(cfg_rng.below(16));
        p.t_ccd = 2 + static_cast<uint32_t>(cfg_rng.below(4));
        p.queue_depth = 8u << cfg_rng.below(3);
        p.cpu_cycles_per_mem_cycle =
            1u << cfg_rng.below(3);
        p.t_refi = cfg_rng.below(2) == 0
            ? 0
            : 400 + static_cast<uint32_t>(cfg_rng.below(400));
        p.bg_max_wait_mem_cycles = cfg_rng.below(2) == 0
            ? 0
            : 32 + static_cast<uint32_t>(cfg_rng.below(200));

        ControllerDriver polled(p);
        ControllerDriver event_driven(p);
        const uint32_t banks = static_cast<uint32_t>(
            polled.ctrl.numBanks());

        // Identical pseudo-random traffic into both drivers.
        Rng traffic(1000 + trial);
        const Tick horizon = 6000;
        Tick next_arrival = traffic.below(20);
        Addr next_addr = 0;
        for (Tick t = 0; t < horizon; ++t) {
            polled.step(t, false);
            event_driven.step(t, true);
            while (t == next_arrival) {
                const bool is_write = traffic.below(10) < 3;
                const TrafficClass cls = is_write
                    ? (traffic.below(2) != 0 ? TrafficClass::Writeback
                                             : TrafficClass::Migration)
                    : (traffic.below(10) < 7
                           ? TrafficClass::Demand
                           : TrafficClass::Migration);
                const uint32_t bank =
                    static_cast<uint32_t>(traffic.below(banks));
                const int64_t row =
                    static_cast<int64_t>(traffic.below(4));
                const Addr addr = next_addr;
                next_addr += kSubblockSize;
                polled.enqueue(addr, is_write, cls, bank, row, t,
                               false);
                event_driven.enqueue(addr, is_write, cls, bank, row, t,
                                     true);
                next_arrival = t + 1 + traffic.below(12);
            }
            // Liveness: pending work always has a pending wakeup.
            if (event_driven.ctrl.queuedRequests() != 0)
                ASSERT_NE(event_driven.ctrl.nextScanAt(), kTickNever)
                    << "trial " << trial << " tick " << t;
        }
        // Drain what is still queued.
        for (Tick t = horizon; t < horizon + 100000 &&
                 (polled.ctrl.queuedRequests() != 0 ||
                  event_driven.ctrl.queuedRequests() != 0);
             ++t) {
            polled.step(t, false);
            event_driven.step(t, true);
        }

        ASSERT_EQ(polled.ctrl.queuedRequests(), 0u) << "trial " << trial;
        ASSERT_EQ(event_driven.ctrl.queuedRequests(), 0u)
            << "trial " << trial;
        EXPECT_EQ(polled.completions, event_driven.completions)
            << "trial " << trial;
        EXPECT_EQ(polled.ctrl.readsServed(),
                  event_driven.ctrl.readsServed());
        EXPECT_EQ(polled.ctrl.writesServed(),
                  event_driven.ctrl.writesServed());
        EXPECT_EQ(polled.ctrl.rowHits(), event_driven.ctrl.rowHits());
        EXPECT_EQ(polled.ctrl.rowMisses(),
                  event_driven.ctrl.rowMisses());
        EXPECT_EQ(polled.ctrl.activations(),
                  event_driven.ctrl.activations());
        EXPECT_EQ(polled.ctrl.refreshes(),
                  event_driven.ctrl.refreshes());
        EXPECT_EQ(polled.ctrl.bgPromotions(),
                  event_driven.ctrl.bgPromotions());
        EXPECT_EQ(polled.ctrl.busBusyTicks(),
                  event_driven.ctrl.busBusyTicks());
    }
}

TEST(EventDriven, RefreshCatchUpCountsEachInterval)
{
    DramTimingParams p = simpleParams();
    p.t_refi = 100;
    EventQueue events;
    ChannelController ctrl(p, events);

    // Idle channel: the only wakeup is the refresh deadline.
    EXPECT_EQ(ctrl.nextScanAt(), p.toTicks(p.t_refi));

    // Wake far past several intervals at once (a fast-forwarded main
    // loop does this routinely): every elapsed interval must count.
    const Tick interval = p.toTicks(p.t_refi);
    ctrl.scan(interval * 5);
    EXPECT_EQ(ctrl.refreshes(), 5u);
    EXPECT_EQ(ctrl.nextRefreshAt(), interval * 6);
    EXPECT_EQ(ctrl.nextScanAt(), interval * 6);

    ctrl.scan(interval * 6);
    EXPECT_EQ(ctrl.refreshes(), 6u);
}

TEST(EventDriven, DrainHysteresisReleasesAboveEmptyAtDepth8)
{
    // Regression: with queue_depth = 8 the old fixed release margin of 8
    // exceeded the high watermark, the release condition could never be
    // met, and an engaged drain ran the write queue all the way to
    // empty.  The margin now derives from the depth.
    DramTimingParams p = simpleParams();
    p.queue_depth = 8;
    p.t_refi = 0;
    EventQueue events;
    ChannelController ctrl(p, events);

    for (uint32_t i = 0; i < 8; ++i) {
        DecodedRequest dec;
        dec.req.addr = static_cast<Addr>(i) * kSubblockSize;
        dec.req.is_write = true;
        dec.req.traffic = TrafficClass::Writeback;
        dec.bank = i % ctrl.numBanks();
        dec.row = 0;
        ctrl.enqueue(std::move(dec), 0);
    }

    bool engaged = false;
    size_t depth_at_release = 0;
    for (Tick t = 0; t < 100000 && ctrl.writeQueueDepth() != 0; ++t) {
        if (t % p.toTicks(1) == 0)
            ctrl.scan(t);
        if (ctrl.drainingWrites()) {
            engaged = true;
        } else if (engaged && depth_at_release == 0) {
            depth_at_release = ctrl.writeQueueDepth();
            break;
        }
    }
    EXPECT_TRUE(engaged);
    // Drain must disengage while writes are still queued, not at empty.
    EXPECT_GT(depth_at_release, 0u);
}

TEST(EventDriven, AgingPromotesStarvedBackgroundRead)
{
    DramTimingParams p = simpleParams();
    p.t_refi = 0;
    p.bg_max_wait_mem_cycles = 64;
    EventQueue events;
    ChannelController ctrl(p, events);

    bool bg_done = false;
    Tick bg_done_at = 0;
    {
        DecodedRequest dec;
        dec.req.addr = 0x10000;
        dec.req.traffic = TrafficClass::Migration;
        dec.req.on_complete = [&](Tick t) {
            bg_done = true;
            bg_done_at = t;
        };
        dec.bank = 0;
        dec.row = 7;
        ctrl.enqueue(std::move(dec), 0);
    }

    // Saturate the channel with demand reads to the same bank forever:
    // without the aging bound the migration read would never be chosen.
    uint64_t demand_done = 0;
    Addr a = 0;
    for (Tick t = 0; t < p.toTicks(4096); ++t) {
        if (t % p.toTicks(1) == 0) {
            while (ctrl.readQueueDepth() < p.queue_depth) {
                DecodedRequest dec;
                dec.req.addr = (a += kSubblockSize);
                dec.req.traffic = TrafficClass::Demand;
                dec.req.on_complete = [&](Tick) { ++demand_done; };
                dec.bank = 0;
                dec.row = 0;
                ctrl.enqueue(std::move(dec), t);
            }
            ctrl.scan(t);
        }
        events.runDue(t);
    }

    EXPECT_TRUE(bg_done);
    EXPECT_GE(ctrl.bgPromotions(), 1u);
    // Promotion happened once the bound elapsed, not at the very end.
    EXPECT_LE(bg_done_at,
              p.toTicks(p.bg_max_wait_mem_cycles) + p.toTicks(256));
    EXPECT_GT(demand_done, 0u);
}

TEST(EventDriven, ArenaSurvivesChurn)
{
    // Free-list stress: interleave enqueues and drains so arena slots
    // are recycled across all three queues, then verify nothing leaks
    // and FIFO order within each queue is preserved.
    DramTimingParams p = simpleParams();
    p.t_refi = 0;
    EventQueue events;
    ChannelController ctrl(p, events);
    Rng rng(42);

    uint64_t enqueued_reads = 0;
    uint64_t enqueued_writes = 0;
    Addr a = 0;
    for (int round = 0; round < 50; ++round) {
        const uint32_t burst = 1 + static_cast<uint32_t>(rng.below(12));
        const Tick base = static_cast<Tick>(round) * 4096;
        for (uint32_t i = 0; i < burst; ++i) {
            DecodedRequest dec;
            dec.req.addr = (a += kSubblockSize);
            dec.req.is_write = rng.below(3) == 0;
            dec.req.traffic = dec.req.is_write
                ? TrafficClass::Writeback
                : (rng.below(2) != 0 ? TrafficClass::Demand
                                     : TrafficClass::Migration);
            dec.bank = static_cast<uint32_t>(
                rng.below(ctrl.numBanks()));
            dec.row = static_cast<int64_t>(rng.below(8));
            if (dec.req.is_write)
                ++enqueued_writes;
            else
                ++enqueued_reads;
            ctrl.enqueue(std::move(dec), base);
        }
        // FIFO snapshots stay enqueue-ordered.
        for (int q = 0; q < 3; ++q) {
            const auto snap = ctrl.queueSnapshot(q);
            for (size_t i = 1; i < snap.size(); ++i)
                ASSERT_LE(snap[i - 1].enqueued, snap[i].enqueued);
        }
        // Randomly drain some or all of the queue.
        const bool full_drain = rng.below(3) == 0;
        Tick t = base;
        const Tick stop = base + 4096;
        while (t < stop &&
               (full_drain ? ctrl.queuedRequests() != 0
                           : t < base + 256)) {
            if (t % p.toTicks(1) == 0)
                ctrl.scan(t);
            events.runDue(t);
            ++t;
        }
    }
    // Final drain.
    for (Tick t = 50 * 4096; ctrl.queuedRequests() != 0; ++t) {
        if (t % p.toTicks(1) == 0)
            ctrl.scan(t);
        events.runDue(t);
    }
    EXPECT_EQ(ctrl.readsServed(), enqueued_reads);
    EXPECT_EQ(ctrl.writesServed(), enqueued_writes);
    EXPECT_EQ(ctrl.readQueueDepth(), 0u);
    EXPECT_EQ(ctrl.writeQueueDepth(), 0u);
}
