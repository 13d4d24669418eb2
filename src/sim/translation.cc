#include "sim/translation.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace sim {

Translation::Translation(uint64_t phys_bytes, uint64_t seed)
{
    if (phys_bytes == 0 || phys_bytes % kLargeBlockSize != 0)
        fatal("translation: physical space must be a positive multiple "
              "of the page size");
    const uint64_t n = phys_bytes / kLargeBlockSize;
    frames_.resize(n);
    for (uint64_t i = 0; i < n; ++i)
        frames_[i] = i;
    // Pre-shuffled free list => uniformly random first-touch placement.
    Rng rng(seed ^ 0xA110CA7E);
    for (uint64_t i = n; i > 1; --i) {
        const uint64_t j = rng.below(i);
        std::swap(frames_[i - 1], frames_[j]);
    }
}

Addr
Translation::translate(CoreId core, Addr vaddr)
{
    const uint64_t vpage = vaddr >> kLargeBlockBits;
    const size_t idx = static_cast<size_t>(core) * kTlbEntries +
        (vpage & (kTlbEntries - 1));
    if (idx < tlb_.size() && tlb_[idx].vpage == vpage) {
        return tlb_[idx].frame * kLargeBlockSize +
            (vaddr & (kLargeBlockSize - 1));
    }
    const uint64_t k = key(core, vpage);
    auto it = page_table_.find(k);
    uint64_t frame;
    if (it != page_table_.end()) {
        frame = it->second;
    } else {
        if (next_free_ >= frames_.size())
            fatal("translation: out of physical memory after %llu pages",
                  static_cast<unsigned long long>(next_free_));
        frame = frames_[next_free_++];
        page_table_.emplace(k, frame);
        ++per_core_pages_[core];
    }
    if (idx >= tlb_.size())
        tlb_.resize((static_cast<size_t>(core) + 1) * kTlbEntries);
    tlb_[idx].vpage = vpage;
    tlb_[idx].frame = frame;
    return frame * kLargeBlockSize + (vaddr & (kLargeBlockSize - 1));
}

uint64_t
Translation::pagesAllocatedFor(CoreId core) const
{
    auto it = per_core_pages_.find(core);
    return it == per_core_pages_.end() ? 0 : it->second;
}

void
Translation::snapshot(BlobWriter &w) const
{
    w.putU64(next_free_);

    std::vector<std::pair<uint64_t, uint64_t>> entries(
        page_table_.begin(), page_table_.end());
    std::sort(entries.begin(), entries.end());
    w.putU64(entries.size());
    for (const auto &[k, frame] : entries) {
        w.putU64(k);
        w.putU64(frame);
    }

    std::vector<std::pair<CoreId, uint64_t>> per_core(
        per_core_pages_.begin(), per_core_pages_.end());
    std::sort(per_core.begin(), per_core.end());
    w.putU64(per_core.size());
    for (const auto &[core, pages] : per_core) {
        w.putU32(core);
        w.putU64(pages);
    }
}

void
Translation::restore(BlobReader &r)
{
    next_free_ = r.getU64();
    if (next_free_ > frames_.size())
        fatal("translation restore: %llu pages allocated but only %zu "
              "frames (phys size mismatch)",
              static_cast<unsigned long long>(next_free_), frames_.size());

    page_table_.clear();
    const uint64_t entries = r.getU64();
    for (uint64_t i = 0; i < entries; ++i) {
        const uint64_t k = r.getU64();
        const uint64_t frame = r.getU64();
        page_table_.emplace(k, frame);
    }

    per_core_pages_.clear();
    const uint64_t cores = r.getU64();
    for (uint64_t i = 0; i < cores; ++i) {
        const CoreId core = r.getU32();
        per_core_pages_[core] = r.getU64();
    }

    // Invalidate the translation cache; translate() regrows it lazily.
    tlb_.clear();
}

} // namespace sim
} // namespace silc
