#include "cache/cache.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace silc {
namespace cache {

void
CacheParams::validate() const
{
    if (!isPowerOf2(line_bytes) || line_bytes == 0)
        fatal("%s: line size must be a power of two", name.c_str());
    if (associativity == 0)
        fatal("%s: zero associativity", name.c_str());
    if (size_bytes % (static_cast<uint64_t>(line_bytes) * associativity)
        != 0) {
        fatal("%s: size not divisible by way size", name.c_str());
    }
    if (!isPowerOf2(numSets()))
        fatal("%s: number of sets must be a power of two", name.c_str());
}

Cache::Cache(CacheParams params)
    : params_(std::move(params))
{
    params_.validate();
    num_sets_ = params_.numSets();
    line_shift_ = floorLog2(params_.line_bytes);
    set_bits_ = floorLog2(num_sets_);
    lines_.assign(num_sets_ * params_.associativity, Line{});
}

uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> line_shift_) & (num_sets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> line_shift_ >> set_bits_;
}

Addr
Cache::lineAddr(Addr tag, uint64_t set) const
{
    return ((tag << set_bits_) | set) << line_shift_;
}

Cache::Line *
Cache::findLine(Addr tag, uint64_t set)
{
    Line *base = &lines_[set * params_.associativity];
    for (uint32_t w = 0; w < params_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr tag, uint64_t set) const
{
    const Line *base = &lines_[set * params_.associativity];
    for (uint32_t w = 0; w < params_.associativity; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

Cache::Line *
Cache::scanSet(Addr tag, uint64_t set, Line **invalid_out,
               Line **lru_out)
{
    // One pass per lookup: the matching line if present, plus the first
    // invalid way (the preferred victim) and the LRU-minimum way for the
    // miss path — access() and fill() used to walk the set once to find
    // the line and again to pick a victim.  The LRU minimum runs over
    // every way regardless of validity; it is only consulted when no
    // invalid way exists, in which case the two sets coincide.
    Line *base = &lines_[set * params_.associativity];
    Line *invalid = nullptr;
    Line *lru_min = base;
    for (uint32_t w = 0; w < params_.associativity; ++w) {
        if (base[w].valid) {
            if (base[w].tag == tag)
                return &base[w];
        } else if (invalid == nullptr) {
            invalid = &base[w];
        }
        if (base[w].lru < lru_min->lru)
            lru_min = &base[w];
    }
    *invalid_out = invalid;
    *lru_out = lru_min;
    return nullptr;
}

Cache::Line &
Cache::victimLine(uint64_t set)
{
    // Only reached for Random replacement when every way is valid
    // (scanSet() hands the miss path an invalid way or the LRU minimum
    // first).
    Line *base = &lines_[set * params_.associativity];
    // Deterministic round-robin pseudo-random victim.
    rr_victim_ = (rr_victim_ + 1) % params_.associativity;
    return base[rr_victim_];
}

AccessOutcome
Cache::access(Addr addr, bool is_write)
{
    const uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    AccessOutcome out;

    Line *invalid = nullptr;
    Line *lru_min = nullptr;
    if (Line *line = scanSet(tag, set, &invalid, &lru_min)) {
        ++hits_;
        out.hit = true;
        line->lru = ++lru_clock_;
        if (is_write)
            line->dirty = true;
        return out;
    }

    ++misses_;
    Line &victim = invalid            ? *invalid
        : params_.replacement == Replacement::Lru ? *lru_min
                                                  : victimLine(set);
    if (victim.valid) {
        ++evictions_;
        if (victim.dirty) {
            ++writebacks_;
            out.writeback = true;
            out.writeback_addr = lineAddr(victim.tag, set);
        }
    }
    victim.tag = tag;
    victim.valid = true;
    victim.dirty = is_write;
    victim.lru = ++lru_clock_;
    return out;
}

AccessOutcome
Cache::fill(Addr addr, bool dirty)
{
    const uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    AccessOutcome out;

    Line *invalid = nullptr;
    Line *lru_min = nullptr;
    if (Line *line = scanSet(tag, set, &invalid, &lru_min)) {
        out.hit = true;
        if (dirty)
            line->dirty = true;
        return out;
    }

    Line &victim = invalid            ? *invalid
        : params_.replacement == Replacement::Lru ? *lru_min
                                                  : victimLine(set);
    if (victim.valid) {
        ++evictions_;
        if (victim.dirty) {
            ++writebacks_;
            out.writeback = true;
            out.writeback_addr = lineAddr(victim.tag, set);
        }
    }
    victim.tag = tag;
    victim.valid = true;
    victim.dirty = dirty;
    victim.lru = ++lru_clock_;
    return out;
}

bool
Cache::accessIfHit(Addr addr, bool is_write)
{
    Line *line = findLine(tagOf(addr), setIndex(addr));
    if (line == nullptr)
        return false;
    ++hits_;
    line->lru = ++lru_clock_;
    if (is_write)
        line->dirty = true;
    return true;
}

bool
Cache::probe(Addr addr) const
{
    return findLine(tagOf(addr), setIndex(addr)) != nullptr;
}

bool
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(tagOf(addr), setIndex(addr))) {
        const bool was_dirty = line->dirty;
        line->valid = false;
        line->dirty = false;
        line->tag = kAddrInvalid;
        return was_dirty;
    }
    return false;
}

void
Cache::reset()
{
    lines_.assign(num_sets_ * params_.associativity, Line{});
    lru_clock_ = 0;
    rr_victim_ = 0;
    hits_ = misses_ = evictions_ = writebacks_ = 0;
}

void
Cache::snapshot(BlobWriter &w) const
{
    w.putU64(lines_.size());
    for (const Line &l : lines_) {
        w.putU64(l.tag);
        w.putBool(l.valid);
        w.putBool(l.dirty);
        w.putU64(l.lru);
    }
    w.putU64(lru_clock_);
    w.putU64(rr_victim_);
}

void
Cache::restore(BlobReader &r)
{
    const uint64_t n = r.getU64();
    if (n != lines_.size()) {
        fatal("%s: checkpoint has %llu lines, cache has %zu (geometry "
              "mismatch)", params_.name.c_str(),
              static_cast<unsigned long long>(n), lines_.size());
    }
    for (Line &l : lines_) {
        l.tag = r.getU64();
        l.valid = r.getBool();
        l.dirty = r.getBool();
        l.lru = r.getU64();
    }
    lru_clock_ = r.getU64();
    rr_victim_ = r.getU64();
    hits_ = misses_ = evictions_ = writebacks_ = 0;
}

} // namespace cache
} // namespace silc
