/**
 * @file
 * SparseArray<T>: a lazily materialized, open-addressed flat table
 * keyed by uint64 indices, for capacity-proportional metadata that is
 * touched at footprint scale.
 *
 * The paper-scale configurations (NM 1 GiB / FM 4-16 GiB) make dense
 * per-frame / per-block vectors unaffordable: a 16 GB flat space has
 * 268M 64B blocks, and even one uint64 per block is 2 GiB.  Actual
 * runs only ever touch the working set, so every structure indexed by
 * frame/block/slot number stores just the materialized entries and
 * treats absent keys as a shared default-constructed T.
 *
 * Same flat-table idiom as the MSHR file (PR 4): power-of-two capacity,
 * Fibonacci-hashed keys, linear probing, amortized growth at 70% load.
 * There is no per-key erase — the users (NM frame metadata, shadow
 * stores, history tables) only ever materialize and clear() — which
 * keeps probing tombstone-free.
 *
 * Iteration order of the backing table is hash order; forEachSorted()
 * visits entries in ascending key order so serialization and sweep
 * diagnostics stay byte-deterministic.
 *
 * Reference stability: a reference returned by find() or getOrCreate()
 * stays valid until getOrCreate() inserts a key that was not present
 * (only an insert can grow and rehash the table).  Callers may hold a
 * reference across lookups of present keys, including the same key.
 */

#ifndef SILC_COMMON_SPARSE_ARRAY_HH
#define SILC_COMMON_SPARSE_ARRAY_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace silc {

template <typename T>
class SparseArray
{
  public:
    explicit SparseArray(size_t initial_capacity = 16)
    {
        size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.resize(cap);
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Entry for @p key, or nullptr when not materialized. */
    const T *
    find(uint64_t key) const
    {
        const Slot &s = slots_[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    T *
    find(uint64_t key)
    {
        return const_cast<T *>(
            static_cast<const SparseArray *>(this)->find(key));
    }

    /** Entry for @p key, materializing a default-constructed T. */
    T &
    getOrCreate(uint64_t key)
    {
        // Probe before growing: a lookup of a present key must never
        // rehash (see "Reference stability" above).
        size_t i = probe(key);
        if (slots_[i].used)
            return slots_[i].value;
        if ((size_ + 1) * 10 > slots_.size() * 7) {
            grow();
            i = probe(key);
        }
        Slot &s = slots_[i];
        s.used = true;
        s.key = key;
        s.value = T{};
        ++size_;
        return s.value;
    }

    /** Materialize @p key with @p value (overwriting any prior entry). */
    void
    set(uint64_t key, const T &value)
    {
        getOrCreate(key) = value;
    }

    void
    clear()
    {
        for (Slot &s : slots_)
            s.used = false;
        size_ = 0;
    }

    /** Visit materialized entries in hash (arbitrary) order. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const Slot &s : slots_) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

    /** Mutable hash-order visit (aging sweeps). */
    template <typename Fn>
    void
    forEachMutable(Fn fn)
    {
        for (Slot &s : slots_) {
            if (s.used)
                fn(s.key, s.value);
        }
    }

    /** Ascending-key visit: deterministic serialization and sweeps. */
    template <typename Fn>
    void
    forEachSorted(Fn fn) const
    {
        std::vector<uint64_t> keys = sortedKeys();
        for (uint64_t k : keys)
            fn(k, *find(k));
    }

    /** Materialized keys in ascending order. */
    std::vector<uint64_t>
    sortedKeys() const
    {
        std::vector<uint64_t> keys;
        keys.reserve(size_);
        for (const Slot &s : slots_) {
            if (s.used)
                keys.push_back(s.key);
        }
        std::sort(keys.begin(), keys.end());
        return keys;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        T value{};
        bool used = false;
    };

    static size_t
    hash(uint64_t key)
    {
        // Fibonacci multiplicative hash: sequential frame/block keys
        // spread across the table instead of clustering one probe run.
        return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 17);
    }

    /** Slot holding @p key, or the empty slot where it would go.
     *  Terminates because growth keeps the load at or below 70%. */
    size_t
    probe(uint64_t key) const
    {
        const size_t mask = slots_.size() - 1;
        size_t i = hash(key) & mask;
        while (slots_[i].used && slots_[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(old.size() * 2, Slot{});
        const size_t mask = slots_.size() - 1;
        for (Slot &s : old) {
            if (!s.used)
                continue;
            for (size_t i = hash(s.key) & mask;; i = (i + 1) & mask) {
                if (!slots_[i].used) {
                    slots_[i] = std::move(s);
                    break;
                }
            }
        }
    }

    std::vector<Slot> slots_;
    size_t size_ = 0;
};

} // namespace silc

#endif // SILC_COMMON_SPARSE_ARRAY_HH
