/**
 * @file
 * The cache-like NM organizations as one policy, parameterised by the
 * share of NM that is OS-visible memory (cf. Bakhshalipour et al.,
 * "Die-Stacked DRAM: Memory, Cache, or MemCache?", PAPERS.md):
 *
 *  - the first `static_bytes` of NM are flat memory: flat addresses
 *    [0, static_bytes) identity-map onto them, with no tags, no fills
 *    and no metadata;
 *  - the rest of NM is a set-associative hardware cache of FM at 64B
 *    granularity (Alloy-style tags-and-data, cf. Qureshi & Loh, MICRO
 *    2012), with the tag stored alongside the data so a hit costs one
 *    extended NM burst.
 *
 * With no static region this is the pure die-stacked DRAM cache
 * ("dramcache"): the OS address space is FM alone, so NM capacity adds
 * no memory, only locality — the trade-off the SILC-FM paper's flat
 * organization is designed to beat.  With `mem_percent` of NM static
 * it is the MemCache hybrid ("memcache"), whose flat space is the
 * static region plus FM.
 */

#ifndef SILC_POLICY_DRAM_CACHE_HH
#define SILC_POLICY_DRAM_CACHE_HH

#include <cstdint>

#include "policy/block_cache.hh"
#include "policy/policy.hh"

namespace silc {
namespace policy {

/** Cache-region configuration ("dramcache": all of NM is cache). */
struct DramCacheParams
{
    /** Ways per set (Alloy adopts 1: direct-mapped TAD). */
    uint32_t ways = 1;
    /** Tag bytes fetched/written alongside each 64B line. */
    uint32_t tag_bytes = 8;
    /** Allocate on write misses too (false: write-around). */
    bool fill_on_write = true;
};

/** MemCache hybrid configuration: the cache region plus the static
 *  share of NM. */
struct MemCacheParams : DramCacheParams
{
    MemCacheParams() { ways = 2; }

    /** Share of NM exposed as flat memory (rest is cache), in [0, 99];
     *  rounded down to a 2KB multiple. */
    uint32_t mem_percent = 50;
};

/** NM bytes the MemCache hybrid exposes as flat memory: @p p's
 *  mem_percent of NM, rounded down to a 2KB multiple (fatal when that
 *  leaves no cache). */
uint64_t memCacheStaticBytes(const PolicyEnv &env, const MemCacheParams &p);

/** NM split into a static flat region and a cache of FM. */
class DramCachePolicy final : public FlatMemoryPolicy
{
  public:
    /**
     * @param static_bytes NM bytes exposed as flat memory (a multiple
     *                     of 64B, below NM capacity); 0 for a pure cache
     * @param name         registry scheme name the policy reports
     */
    DramCachePolicy(PolicyEnv env, const DramCacheParams &params,
                    uint64_t static_bytes = 0,
                    const char *name = "dramcache");

    const char *name() const override { return name_; }
    uint64_t flatSpaceBytes() const override;
    void demandAccess(Addr paddr, bool is_write, CoreId core, Addr pc,
                      DemandCallback done, Tick now) override;
    void writeback(Addr paddr, CoreId core, Tick now) override;
    Location locate(Addr paddr) const override;

    bool supportsSampling() const override { return true; }
    void snapshotState(BlobWriter &w) const override;
    void restoreState(BlobReader &r) override;

    // Home layout: the static region is the NM part of the flat space;
    // everything past it homes in FM.  Cache slots are nobody's home.
    uint64_t homeNmBytes() const override { return static_bytes_; }

    void forEachDisplacedBlock(
        const std::function<void(uint64_t)> &fn) const override;

    /** NM bytes exposed as flat memory. */
    uint64_t staticBytes() const { return static_bytes_; }

    uint64_t fills() const { return fills_; }
    uint64_t dirtyEvictions() const { return dirty_evictions_; }

    const BlockCacheDir &directory() const { return dir_; }

    /** Shadow-oracle self-tests ONLY (see BlockCacheDir). */
    BlockCacheDir &directoryForFaultInjection() { return dir_; }

  private:
    /** Cache block index of device-sized subblock address @p sub (at or
     *  past the static region): its FM home, in 64B units. */
    uint64_t
    cachedBlockOf(Addr sub) const
    {
        return (sub - static_bytes_) >> kSubblockBits;
    }

    /** FM device location of cache block @p block. */
    static Location
    fmHome(uint64_t block)
    {
        return Location{false, block * kSubblockSize};
    }

    /** NM device byte address of cache slot @p slot (slots live above
     *  the static region). */
    Addr
    slotAddr(uint64_t slot) const
    {
        return static_bytes_ + slot * kSubblockSize;
    }

    /** Install @p block (evicting as needed); demand data already in
     *  flight carries the line, so only the eviction and the NM install
     *  write are extra traffic. */
    void fillBlock(uint64_t block, const Location &from, bool is_write,
                   CoreId core, Tick now);

    const char *name_;
    DramCacheParams params_;
    uint64_t static_bytes_;
    BlockCacheDir dir_;
    uint64_t fills_ = 0;
    uint64_t dirty_evictions_ = 0;
};

} // namespace policy
} // namespace silc

#endif // SILC_POLICY_DRAM_CACHE_HH
