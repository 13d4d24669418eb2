#include "core/silc_fm.hh"

#include "common/logging.hh"
#include "common/serialize.hh"
#include "telemetry/sampler.hh"

namespace silc {
namespace core {

using policy::Location;

SilcFmPolicy::SilcFmPolicy(policy::PolicyEnv env, SilcFmParams params)
    : FlatMemoryPolicy(env),
      params_(params),
      nm_pages_(env.nm ? env.nm->capacity() / kLargeBlockSize : 0),
      total_pages_((env.nm ? env.nm->capacity() : 0) / kLargeBlockSize +
                   env.fm->capacity() / kLargeBlockSize),
      meta_(nm_pages_, params.associativity),
      history_(params.history_entries),
      predictor_(params.predictor_entries),
      balancer_(params.enable_bypass, params.bypass_target,
                params.bypass_window),
      counter_ops_(params.counter_bits),
      aging_(params.aging_interval)
{
    silc_assert(env_.nm != nullptr);
    if (params_.hot_threshold > counter_ops_.max())
        fatal("silcfm: hot threshold %u exceeds %u-bit counter maximum",
              params_.hot_threshold, params_.counter_bits);
}

uint64_t
SilcFmPolicy::flatSpaceBytes() const
{
    return env_.nm->capacity() + env_.fm->capacity();
}

int
SilcFmPolicy::metadataChannel() const
{
    if (!params_.dedicated_metadata_channel)
        return -1;
    return static_cast<int>(env_.nm->params().channels - 1);
}

Addr
SilcFmPolicy::metadataAddr(uint64_t set) const
{
    // One metadata line per set, interleaved across the channel's banks
    // so remap fetches pipeline (Section III-D stores metadata in its
    // own channel to keep its row buffer locality high; banking keeps
    // the channel from serialising at tCCD).
    const dram::DramTimingParams &p = env_.nm->params();
    const uint64_t banks = p.banks_per_rank * p.ranks_per_channel;
    const uint64_t cols = p.row_buffer_bytes / kSubblockSize;
    const uint64_t bank = set % banks;
    const uint64_t group = set / banks;
    const uint64_t col = group % cols;
    const uint64_t row = group / cols;
    const uint64_t rest = (row * banks + bank) * cols + col;
    return (rest * p.channels * kSubblockSize) % env_.nm->capacity();
}

Location
SilcFmPolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    const uint64_t page = paddr >> kLargeBlockBits;
    const uint32_t sub = subblockOffset(paddr);

    if (isNativePage(page)) {
        const WayMeta &m = meta_.meta(page);
        if (m.bv.test(sub)) {
            silc_assert(m.remap != kNoRemap);
            return Location{false, fmHomeAddr(m.remap, sub)};
        }
        return Location{true, nmAddr(page, sub)};
    }

    const uint64_t set = meta_.setOf(page);
    const int way = meta_.findWay(set, page);
    if (way >= 0) {
        const uint64_t frame = meta_.frameOf(set, way);
        if (meta_.meta(frame).bv.test(sub))
            return Location{true, nmAddr(frame, sub)};
    }
    return Location{false, fmHomeAddr(page, sub)};
}

void
SilcFmPolicy::migrateSubblockIn(uint64_t frame, uint64_t fm_page,
                                uint32_t sub, CoreId core, Tick now)
{
    // Native subblock leaves NM for the FM page's home slot; the FM
    // subblock is installed into the frame.
    swapSubblocks(Location{true, nmAddr(frame, sub)},
                  Location{false, fmHomeAddr(fm_page, sub)}, core, now);
}

void
SilcFmPolicy::migrateSubblockOut(uint64_t frame, uint64_t fm_page,
                                 uint32_t sub, CoreId core, Tick now)
{
    // The swapped-in FM subblock returns home; the native subblock
    // returns to its frame.
    swapSubblocks(Location{true, nmAddr(frame, sub)},
                  Location{false, fmHomeAddr(fm_page, sub)}, core, now);
}

void
SilcFmPolicy::swapInSubblock(uint64_t frame, uint64_t fm_page,
                             uint32_t sub, Addr pc, Addr sub_addr,
                             CoreId core, Tick now, bool demand)
{
    WayMeta &m = meta_.meta(frame);
    silc_assert(m.remap == fm_page);
    silc_assert(!m.bv.test(sub));

    const bool first = m.bv.none();
    const Addr hist_pc = params_.history_index_by_page ? 0 : pc;
    const Addr hist_addr = params_.history_index_by_page
        ? fm_page * kLargeBlockSize
        : sub_addr;

    if (demand) {
        // The demand FM read (issued by the caller) carries the data to
        // the LLC and into NM; only the native eviction and the NM
        // install are extra traffic.  Functionally this is still a full
        // exchange of the two locations' contents.
        const Location nm_loc{true, nmAddr(frame, sub)};
        const Location fm_loc{false, fmHomeAddr(fm_page, sub)};
        ++migration_ops_;
        moveSubblockQuiet(nm_loc, fm_loc, core, now);
        issueWrite(*env_.nm, nm_loc.device_addr,
                   static_cast<uint32_t>(kSubblockSize),
                   dram::TrafficClass::Migration, core, now);
        notifySwap(nm_loc, fm_loc);
    } else {
        migrateSubblockIn(frame, fm_page, sub, core, now);
    }
    m.bv.set(sub);
    if (demand)
        m.used.set(sub);
    ++swaps_;

    if (first) {
        m.first_pc = hist_pc;
        m.first_addr = hist_addr;
        m.has_signature = true;

        if (params_.enable_history_fetch) {
            const SubblockVector hist =
                history_.lookup(hist_pc, hist_addr);
            if (hist.count() < params_.history_min_bits)
                return;
            for (uint32_t j = 0; j < kSubblocksPerBlock; ++j) {
                if (j == sub || !hist.test(j) || m.bv.test(j))
                    continue;
                migrateSubblockIn(frame, fm_page, j, core, now);
                m.bv.set(j);
                ++swaps_;
                ++history_fetched_;
            }
        }
    }
}

void
SilcFmPolicy::restoreWay(uint64_t frame, CoreId core, Tick now)
{
    WayMeta &m = meta_.meta(frame);
    silc_assert(!m.locked);
    if (m.remap == kNoRemap) {
        silc_assert(m.bv.none());
        return;
    }

    // Save the demanded-usage pattern (not the residency vector, which
    // locking or history fetches may have inflated) for the next time
    // this signature recurs.
    if (m.has_signature)
        history_.save(m.first_pc, m.first_addr, m.used);

    for (uint32_t j = 0; j < kSubblocksPerBlock; ++j) {
        if (m.bv.test(j))
            migrateSubblockOut(frame, m.remap, j, core, now);
    }
    ++restores_;

    m.remap = kNoRemap;
    m.bv.clearAll();
    m.used.clearAll();
    m.fm_counter = 0;
    m.has_signature = false;
}

void
SilcFmPolicy::lockWay(uint64_t frame, CoreId core, Tick now)
{
    WayMeta &m = meta_.meta(frame);
    silc_assert(!m.locked);
    silc_assert(m.remap != kNoRemap);

    // Complete the large-block remap (Section III-C) when the block's
    // demanded usage is dense enough to justify moving 2KB; sparser hot
    // blocks are pinned without the bulk fetch.
    if (m.used.count() >= params_.lock_full_fetch_min_used) {
        for (uint32_t j = 0; j < kSubblocksPerBlock; ++j) {
            if (!m.bv.test(j)) {
                migrateSubblockIn(frame, m.remap, j, core, now);
                ++swaps_;
            }
        }
        m.bv.setAll();
    }
    m.locked = true;
    m.native_locked = false;
    ++locks_;
}

void
SilcFmPolicy::agingSweep()
{
    meta_.ageCounters();
    if (!params_.enable_locking)
        return;
    // Unmaterialized frames are never locked; the sorted materialized
    // walk keeps the sweep order identical to the old dense loop.
    meta_.forEachMaterializedMutable([&](uint64_t, WayMeta &m) {
        if (!m.locked)
            return;
        const uint8_t owner =
            m.native_locked ? m.nm_counter : m.fm_counter;
        if (owner < params_.hot_threshold) {
            // Clearing the lock has no immediate data movement: an
            // FM-locked block keeps behaving as a fully swapped-in
            // unlocked block (Section III-C).
            m.locked = false;
            ++unlocks_;
        }
    });
}

SilcFmPolicy::Resolution
SilcFmPolicy::resolveNative(uint64_t page, uint32_t sub, Addr pc,
                            CoreId core, Tick now)
{
    (void)pc;
    Resolution res;
    res.native = true;
    const uint64_t frame = page;
    WayMeta &m = meta_.meta(frame);
    m.nm_counter = counter_ops_.increment(m.nm_counter);
    meta_.touch(frame);
    res.way = static_cast<int>(meta_.wayOfFrame(frame));

    const bool bypass = balancer_.bypassing();

    if (m.bv.test(sub)) {
        // Table I: remap mismatch, bit set, NM address -> the native
        // subblock was swapped out; service it from FM and swap it
        // back (unless the way is locked for its hot FM page, or
        // bypassing is active).
        res.loc = Location{false, fmHomeAddr(m.remap, sub)};
        if (m.locked) {
            // Locked interleaves are stable: no swap-back churn.
        } else if (!bypass) {
            migrateSubblockOut(frame, m.remap, sub, core, now);
            m.bv.clear(sub);
            m.used.clear(sub);
            res.metadata_dirty = true;
        } else {
            ++bypassed_;
        }
        return res;
    }

    // Native subblock resident in NM.
    res.loc = Location{true, nmAddr(frame, sub)};

    // Native block hot: lock it so FM interleaves stop displacing it.
    if (params_.enable_locking && !m.locked && !bypass &&
        m.nm_counter >= params_.hot_threshold) {
        if (m.remap != kNoRemap)
            restoreWay(frame, core, now);
        m.locked = true;
        m.native_locked = true;
        ++locks_;
        res.metadata_dirty = true;
    }
    return res;
}

SilcFmPolicy::Resolution
SilcFmPolicy::resolveFar(uint64_t page, uint32_t sub, Addr pc,
                         CoreId core, Tick now)
{
    Resolution res;
    const uint64_t set = meta_.setOf(page);
    const Addr sub_addr = page * kLargeBlockSize +
        static_cast<Addr>(sub) * kSubblockSize;
    const bool bypass = balancer_.bypassing();

    int way = meta_.findWay(set, page);
    if (way >= 0) {
        const uint64_t frame = meta_.frameOf(set, way);
        WayMeta &m = meta_.meta(frame);
        m.fm_counter = counter_ops_.increment(m.fm_counter);
        meta_.touch(frame);
        res.way = way;

        if (m.bv.test(sub)) {
            // Resident (fully locked blocks have every subblock set).
            res.loc = Location{true, nmAddr(frame, sub)};
            m.used.set(sub);
        } else if (bypass) {
            res.loc = Location{false, fmHomeAddr(page, sub)};
            ++bypassed_;
        } else {
            res.loc = Location{false, fmHomeAddr(page, sub)};
            swapInSubblock(frame, page, sub, pc, sub_addr, core, now,
                           true);
            res.metadata_dirty = true;
        }

        if (params_.enable_locking && !m.locked && !bypass &&
            m.fm_counter >= params_.hot_threshold) {
            lockWay(frame, core, now);
            res.metadata_dirty = true;
        }
        return res;
    }

    // No way holds this page yet.
    res.loc = Location{false, fmHomeAddr(page, sub)};
    if (bypass) {
        ++bypassed_;
        return res;
    }

    const int victim = meta_.victimWay(set);
    if (victim < 0) {
        // Every way is locked: the page cannot interleave (Section
        // III-C's motivation for associativity).
        ++all_locked_;
        return res;
    }

    const uint64_t frame = meta_.frameOf(set, victim);
    restoreWay(frame, core, now);

    WayMeta &m = meta_.meta(frame);
    m.remap = page;
    m.fm_counter = counter_ops_.increment(0);
    meta_.touch(frame);
    res.way = victim;
    res.metadata_dirty = true;

    swapInSubblock(frame, page, sub, pc, sub_addr, core, now, true);
    return res;
}

void
SilcFmPolicy::issueDemandTimed(const Resolution &res, uint64_t set,
                               Addr pc, Addr sub_addr, CoreId core,
                               policy::DemandCallback done, Tick now)
{
    const int meta_ch = metadataChannel();
    const Addr meta_addr = metadataAddr(set);

    bool way_correct = res.native;
    bool loc_correct = false;
    bool parallel = false;

    if (params_.enable_predictor) {
        const WayPrediction pred = predictor_.predict(pc, sub_addr);
        way_correct = way_correct ||
            (pred.valid && res.way >= 0 &&
             pred.way == static_cast<uint8_t>(res.way));
        loc_correct = pred.valid && (pred.in_fm == !res.loc.in_nm);
        predictor_.recordOutcome(way_correct, loc_correct);
        // Correct speculation overlaps the data access with the
        // remap-entry fetch (Section III-F): an FM prediction forwards
        // the request to FM immediately; an NM prediction with the
        // right way reads that way's data concurrently with its remap
        // entry.
        const bool fm_speculation =
            pred.valid && pred.in_fm && !res.loc.in_nm;
        const bool nm_speculation = pred.valid && !pred.in_fm &&
            res.loc.in_nm && way_correct;
        parallel = fm_speculation || nm_speculation;
        predictor_.update(pc, sub_addr,
                          res.way >= 0
                              ? static_cast<uint8_t>(res.way)
                              : 0,
                          !res.loc.in_nm);
    }

    // A mispredicted (or unpredicted) way serialises the fetch of every
    // remap entry in the set: model it as a longer metadata burst.
    const uint32_t meta_bytes = way_correct
        ? params_.metadata_bytes
        : params_.metadata_bytes * params_.associativity;

    dram::DramSystem &data_dev = deviceFor(res.loc);
    const Addr data_addr = res.loc.device_addr;

    if (!params_.model_metadata_traffic) {
        issueRead(data_dev, data_addr,
                  static_cast<uint32_t>(kSubblockSize),
                  dram::TrafficClass::Demand, core, std::move(done), now);
        return;
    }

    if (parallel) {
        // Metadata verification proceeds off the critical path.
        issueRead(*env_.nm, meta_addr, meta_bytes,
                  dram::TrafficClass::Metadata, core, nullptr, now,
                  meta_ch);
        issueRead(data_dev, data_addr,
                  static_cast<uint32_t>(kSubblockSize),
                  dram::TrafficClass::Demand, core, std::move(done), now);
    } else {
        // Serial: remap entry first, then the data access.
        dram::DramSystem *dev = &data_dev;
        auto data_fetch = [this, dev, data_addr, core,
                           done = std::move(done)](Tick t) mutable {
            issueRead(*dev, data_addr,
                      static_cast<uint32_t>(kSubblockSize),
                      dram::TrafficClass::Demand, core, std::move(done),
                      t);
        };
        issueRead(*env_.nm, meta_addr, meta_bytes,
                  dram::TrafficClass::Metadata, core,
                  std::move(data_fetch), now, meta_ch);
    }

    if (res.metadata_dirty) {
        issueWrite(*env_.nm, meta_addr, params_.metadata_bytes,
                   dram::TrafficClass::Metadata, core, now, meta_ch);
    }
}

void
SilcFmPolicy::demandAccess(Addr paddr, bool is_write, CoreId core,
                           Addr pc, policy::DemandCallback done, Tick now)
{
    silc_assert(paddr < flatSpaceBytes());

    if (aging_.onAccess())
        agingSweep();

    const uint64_t page = paddr >> kLargeBlockBits;
    const uint32_t sub = subblockOffset(paddr);
    const Addr sub_addr = subblockAddr(paddr);

    Resolution res = isNativePage(page)
        ? resolveNative(page, sub, pc, core, now)
        : resolveFar(page, sub, pc, core, now);

    const uint64_t set = isNativePage(page)
        ? meta_.setOfFrame(page)
        : meta_.setOf(page);

    recordService(res.loc.in_nm);
    balancer_.record(res.loc.in_nm);

    issueDemandTimed(res, set, pc, sub_addr, core, std::move(done), now);

    notifyDemand(paddr, is_write, core, pc, res.loc);
}

void
SilcFmPolicy::registerTelemetry(telemetry::Sampler &sampler) const
{
    FlatMemoryPolicy::registerTelemetry(sampler);
    sampler.addCounter("silcfm.swaps",
                       [this] { return double(swaps_); });
    sampler.addCounter("silcfm.restores",
                       [this] { return double(restores_); });
    sampler.addCounter("silcfm.locks",
                       [this] { return double(locks_); });
    sampler.addCounter("silcfm.unlocks",
                       [this] { return double(unlocks_); });
    sampler.addCounter("silcfm.historyFetched",
                       [this] { return double(history_fetched_); });
    sampler.addCounter("silcfm.bypassed",
                       [this] { return double(bypassed_); });
    // Share of the epoch's demand misses the balancer steered to FM —
    // the phase view of Section III-E's reaction to bandwidth shifts.
    sampler.addRatio("silcfm.bypassRate",
                     [this] { return double(bypassed_); },
                     [this] { return double(demandRequests()); });
}

bool
SilcFmPolicy::verifyIntegrity() const
{
    // A default (unmaterialized) frame trivially satisfies every
    // invariant, so walking the materialized frames is exhaustive: any
    // duplicate remap within a set involves two materialized ways.
    meta_.forEachMaterialized([&](uint64_t frame, const WayMeta &m) {
        const uint64_t set = meta_.setOfFrame(frame);
        const uint32_t w = meta_.wayOfFrame(frame);
        if (m.remap != kNoRemap) {
            if (isNativePage(m.remap))
                panic("silcfm: frame %llu remaps a native page",
                      static_cast<unsigned long long>(frame));
            if (meta_.setOf(m.remap) != set)
                panic("silcfm: frame %llu remap maps to wrong set",
                      static_cast<unsigned long long>(frame));
            // No duplicate remap within the set.
            for (uint32_t w2 = w + 1; w2 < meta_.associativity();
                 ++w2) {
                if (meta_.meta(meta_.frameOf(set, w2)).remap ==
                    m.remap) {
                    panic("silcfm: duplicate remap in set %llu",
                          static_cast<unsigned long long>(set));
                }
            }
        } else if (!m.bv.none()) {
            panic("silcfm: frame %llu has bits set without remap",
                  static_cast<unsigned long long>(frame));
        }
        if (m.locked && !m.native_locked && m.remap == kNoRemap)
            panic("silcfm: FM-locked frame %llu has no remap",
                  static_cast<unsigned long long>(frame));
        if (m.locked && m.native_locked &&
            (m.remap != kNoRemap || !m.bv.none())) {
            panic("silcfm: native-locked frame %llu still "
                  "interleaved",
                  static_cast<unsigned long long>(frame));
        }
    });
    return true;
}

void
SilcFmPolicy::forEachDisplacedBlock(
    const std::function<void(uint64_t)> &fn) const
{
    // Interleaving is the only displacement: for every swapped-in
    // subblock position the native block sits at the FM page's home and
    // the FM block sits in the frame.  Locked-but-clear bits and lock
    // state itself move no data.
    meta_.forEachMaterialized([&](uint64_t frame, const WayMeta &m) {
        if (m.remap == kNoRemap || m.bv.none())
            return;
        for (uint32_t j = 0; j < kSubblocksPerBlock; ++j) {
            if (!m.bv.test(j))
                continue;
            fn(frame * kSubblocksPerBlock + j);
            fn(m.remap * kSubblocksPerBlock + j);
        }
    });
}

void
SilcFmPolicy::snapshotState(BlobWriter &w) const
{
    FlatMemoryPolicy::snapshotState(w);
    meta_.snapshot(w);
    history_.snapshot(w);
    predictor_.snapshot(w);
    balancer_.snapshot(w);
    aging_.snapshot(w);
    w.putU64(swaps_);
    w.putU64(restores_);
    w.putU64(locks_);
    w.putU64(unlocks_);
    w.putU64(history_fetched_);
    w.putU64(bypassed_);
    w.putU64(all_locked_);
}

void
SilcFmPolicy::restoreState(BlobReader &r)
{
    FlatMemoryPolicy::restoreState(r);
    meta_.restore(r);
    history_.restore(r);
    predictor_.restore(r);
    balancer_.restore(r);
    aging_.restore(r);
    swaps_ = r.getU64();
    restores_ = r.getU64();
    locks_ = r.getU64();
    unlocks_ = r.getU64();
    history_fetched_ = r.getU64();
    bypassed_ = r.getU64();
    all_locked_ = r.getU64();
}

} // namespace core
} // namespace silc
