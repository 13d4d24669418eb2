#include "policy/dram_cache.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace policy {

uint64_t
memCacheStaticBytes(const PolicyEnv &env, const MemCacheParams &p)
{
    if (env.nm == nullptr)
        fatal("memcache: near memory required");
    if (p.mem_percent >= 100)
        fatal("memcache: mem_percent must be below 100 (use a flat "
              "scheme for all-memory NM), got %u", p.mem_percent);
    const uint64_t nm = env.nm->capacity();
    uint64_t bytes = nm / 100 * p.mem_percent;
    bytes -= bytes % kLargeBlockSize;
    if (bytes >= nm)
        fatal("memcache: static region swallows all of NM");
    return bytes;
}

DramCachePolicy::DramCachePolicy(PolicyEnv env,
                                 const DramCacheParams &params,
                                 uint64_t static_bytes, const char *name)
    : FlatMemoryPolicy(env), name_(name), params_(params),
      static_bytes_(static_bytes),
      dir_(env.nm != nullptr
               ? (env.nm->capacity() - static_bytes) / kSubblockSize
               : 0,
           params.ways)
{
    silc_assert(env_.nm != nullptr);
    silc_assert(static_bytes_ % kSubblockSize == 0 &&
                static_bytes_ < env_.nm->capacity());
}

uint64_t
DramCachePolicy::flatSpaceBytes() const
{
    // Only the static region of NM is memory; the cache adds none.
    return static_bytes_ + env_.fm->capacity();
}

Location
DramCachePolicy::locate(Addr paddr) const
{
    silc_assert(paddr < flatSpaceBytes());
    const Addr sub = subblockAddr(paddr);
    if (sub < static_bytes_)
        return Location{true, sub};
    const uint64_t block = cachedBlockOf(sub);
    const uint64_t slot = dir_.lookup(block);
    if (slot != BlockCacheDir::kNoSlot)
        return Location{true, slotAddr(slot)};
    return fmHome(block);
}

void
DramCachePolicy::fillBlock(uint64_t block, const Location &from,
                           bool is_write, CoreId core, Tick now)
{
    const BlockCacheDir::Fill fill = dir_.install(block);
    const Location slot_loc{true, slotAddr(fill.slot)};
    if (fill.evicted != BlockCacheDir::kNoBlock && fill.evicted_dirty) {
        // Dirty victim: copy its line back to its FM home before the
        // install overwrites the slot.  Clean victims are dropped for
        // free — their home copy is current.
        moveSubblock(slot_loc, fmHome(fill.evicted), core, now);
        ++dirty_evictions_;
    }
    // The demand read already carries the line toward the LLC; the
    // install write (data + tag) is the only extra traffic.
    ++migration_ops_;
    issueWrite(*env_.nm, slot_loc.device_addr,
               static_cast<uint32_t>(kSubblockSize) + params_.tag_bytes,
               dram::TrafficClass::Migration, core, now);
    notifyCopy(from, slot_loc);
    if (is_write)
        dir_.markDirty(fill.slot);
    ++fills_;
}

void
DramCachePolicy::demandAccess(Addr paddr, bool is_write, CoreId core,
                              Addr pc, DemandCallback done, Tick now)
{
    const Addr sub = subblockAddr(paddr);
    if (sub < static_bytes_) {
        // Static region: plain NM memory, no tags, no fills.
        recordService(true);
        const Location loc{true, sub};
        issueRead(*env_.nm, loc.device_addr,
                  static_cast<uint32_t>(kSubblockSize),
                  dram::TrafficClass::Demand, core, std::move(done), now);
        notifyDemand(paddr, is_write, core, pc, loc);
        return;
    }

    const uint32_t burst =
        static_cast<uint32_t>(kSubblockSize) + params_.tag_bytes;
    const uint64_t block = cachedBlockOf(sub);
    const uint64_t slot = dir_.lookup(block);

    if (slot != BlockCacheDir::kNoSlot) {
        // Hit: tag and data arrive in one extended NM burst.
        recordService(true);
        if (is_write)
            dir_.markDirty(slot);
        const Location loc{true, slotAddr(slot)};
        issueRead(*env_.nm, loc.device_addr, burst,
                  dram::TrafficClass::Demand, core, std::move(done), now);
        notifyDemand(paddr, is_write, core, pc, loc);
        return;
    }

    // Miss: the TAD probe read the candidate way for nothing; the FM
    // fetch returns the demand line in parallel (Alloy's memory-access
    // predictor idealised as always-correct).
    recordService(false);
    const Location home = fmHome(block);
    issueRead(*env_.nm, slotAddr(dir_.victimSlot(block)), burst,
              dram::TrafficClass::Metadata, core, nullptr, now);
    issueRead(*env_.fm, home.device_addr,
              static_cast<uint32_t>(kSubblockSize),
              dram::TrafficClass::Demand, core, std::move(done), now);
    if (!is_write || params_.fill_on_write)
        fillBlock(block, home, is_write, core, now);
    notifyDemand(paddr, is_write, core, pc, home);
}

void
DramCachePolicy::writeback(Addr paddr, CoreId core, Tick now)
{
    // An LLC dirty eviction landing in the cache makes the slot dirty;
    // its line must survive the next NM eviction.
    const Addr sub = subblockAddr(paddr);
    if (sub >= static_bytes_) {
        const uint64_t slot = dir_.lookup(cachedBlockOf(sub));
        if (slot != BlockCacheDir::kNoSlot)
            dir_.markDirty(slot);
    }
    FlatMemoryPolicy::writeback(paddr, core, now);
}

void
DramCachePolicy::snapshotState(BlobWriter &w) const
{
    FlatMemoryPolicy::snapshotState(w);
    dir_.snapshot(w);
    w.putU64(fills_);
    w.putU64(dirty_evictions_);
}

void
DramCachePolicy::restoreState(BlobReader &r)
{
    FlatMemoryPolicy::restoreState(r);
    dir_.restore(r);
    fills_ = r.getU64();
    dirty_evictions_ = r.getU64();
}

void
DramCachePolicy::forEachDisplacedBlock(
    const std::function<void(uint64_t)> &fn) const
{
    // Exactly the cached blocks are away from home; cache block b is
    // flat block b past the static region.
    const uint64_t static_blocks = static_bytes_ / kSubblockSize;
    dir_.forEachResident(
        [&](uint64_t block, uint64_t) { fn(static_blocks + block); });
}

} // namespace policy
} // namespace silc
