/**
 * @file
 * Virtual-to-physical translation with 2KB pages (Section IV-A).
 *
 * First-touch allocation over a pre-shuffled free-frame list gives the
 * random static placement the paper's schemes start from; per-core
 * address spaces are disjoint (SPEC rate mode: "different instances do
 * not share the same physical address space").
 */

#ifndef SILC_SIM_TRANSLATION_HH
#define SILC_SIM_TRANSLATION_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace silc {

class BlobWriter;
class BlobReader;

namespace sim {

/** The page-table / frame-allocator pair. */
class Translation
{
  public:
    /**
     * @param phys_bytes flat physical space size (policy-defined)
     * @param seed       RNG seed for the frame shuffle
     */
    Translation(uint64_t phys_bytes, uint64_t seed);

    /**
     * Translate @p vaddr of @p core, allocating a frame on first touch.
     * fatal() when physical memory is exhausted.
     */
    Addr translate(CoreId core, Addr vaddr);

    /** Pages allocated so far (the measured footprint). */
    uint64_t pagesAllocated() const { return next_free_; }

    /** Pages allocated for one core. */
    uint64_t pagesAllocatedFor(CoreId core) const;

    /**
     * Serialize the page table and allocation cursor.  The shuffled
     * frame list is ctor-pure (a pure function of phys_bytes and seed)
     * and is not captured; restore() requires a Translation constructed
     * with the same parameters.  Entries are written in sorted-key order
     * so the blob is byte-deterministic despite the unordered_map.
     */
    void snapshot(BlobWriter &w) const;
    void restore(BlobReader &r);

  private:
    static uint64_t
    key(CoreId core, uint64_t vpage)
    {
        return (static_cast<uint64_t>(core) << 40) | vpage;
    }

    std::unordered_map<uint64_t, uint64_t> page_table_;
    std::unordered_map<CoreId, uint64_t> per_core_pages_;
    std::vector<uint64_t> frames_;
    uint64_t next_free_ = 0;

    /**
     * Per-core direct-mapped translation cache.  Mappings are never
     * invalidated (first-touch only), so serving repeat lookups from
     * here is exact; it exists because the interleaving of instruction
     * lines, stack-like friendly-region accesses and hot-page bursts
     * defeats a single-entry memo, and the hash-map probe was ~17% of
     * simulation time.  Grown lazily per core; restore() invalidates
     * it.
     */
    static constexpr uint32_t kTlbEntries = 256; // per core, power of 2

    struct TlbEntry
    {
        uint64_t vpage = ~uint64_t(0);
        uint64_t frame = 0;
    };
    std::vector<TlbEntry> tlb_;
};

} // namespace sim
} // namespace silc

#endif // SILC_SIM_TRANSLATION_HH
