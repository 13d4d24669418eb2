/**
 * @file
 * Strictly-validated environment knob parsing shared by the count knobs
 * (SILC_THREADS, SILC_CORES, SILC_INSTR, the capacity, tenant and
 * SILC_SAMPLE_* knobs) and any future small-count knob.  The historical parsers (one strtol in sim/parallel.cc, one
 * parseSize in sim/experiment.cc) silently accepted trailing junk
 * ("4abc" read as 4), which turns a typo into a quietly different
 * experiment; here anything but a clean positive decimal integer is a
 * fatal error naming the variable and the offending value.
 */

#ifndef SILC_COMMON_ENV_HH
#define SILC_COMMON_ENV_HH

#include <cstdint>

namespace silc {

/**
 * Read a positive decimal count from environment variable @p name.
 *
 * Returns @p fallback when the variable is unset.  fatal()s (with the
 * variable name and raw value in the message) when the value is empty,
 * zero, negative, non-numeric, has trailing characters, or exceeds
 * @p max_value.
 */
uint64_t envPositiveCount(const char *name, uint64_t fallback,
                          uint64_t max_value = UINT64_MAX);

/**
 * Thread-count flavour of envPositiveCount(): bounds the value to a
 * sanity cap of 1024 threads so a stray SILC_THREADS=100000 fails fast
 * instead of spawning an unusable process.
 */
unsigned envThreadCount(const char *name, unsigned fallback);

/**
 * Capacity knob in mebibytes: reads a positive MiB count (validated
 * like envPositiveCount) and returns it converted to BYTES.
 *
 * The conversion is why this helper exists: `envU64(name) << 20`
 * silently wraps for values above 2^44 MiB and accepts 0, handing the
 * simulator a zero-byte device (divide-by-zero in set math).  Values
 * are capped at 1 TiB (1048576 MiB) — far above any paper
 * configuration — so a garbled value fails fast with the variable
 * name in the message instead of attempting a 16-exabyte allocation.
 *
 * @param fallback_bytes returned as-is (NOT shifted) when unset.
 */
uint64_t envMebibytes(const char *name, uint64_t fallback_bytes);

} // namespace silc

#endif // SILC_COMMON_ENV_HH
