/**
 * @file
 * The one table of SILC_* environment knobs and its typed readers.
 *
 * Every knob the simulator, the benches and the examples honour is a
 * row of table(): name, kind, bounds and a one-line doc (README.md
 * renders the same list, and a test keeps the two in sync).  The typed
 * readers below are the only code that reads a SILC_* variable.
 * Defaults are not in the table: each caller passes its own fallback
 * (the ExperimentOptions / SamplingConfig initializers).
 *
 * Validation is strict and never clamps.  A value that does not parse,
 * or falls outside the row's bounds, is a fatal() naming the variable
 * and the value.  Reading a name that is not in the table, or with the
 * wrong kind, is a panic() (a simulator bug).  The first read also
 * scans the environment once and fatal()s on any SILC_* variable the
 * table does not list, so a typo (SILC_CORE=2) or a retired knob is an
 * error rather than a silently different experiment.
 */

#ifndef SILC_COMMON_KNOBS_HH
#define SILC_COMMON_KNOBS_HH

#include <cstdint>
#include <span>
#include <string>

namespace silc {
namespace knobs {

enum class Kind
{
    /** Strict decimal integer within [min, max]. */
    Count,
    /** A Count of MiB within [min, max]; read back as bytes. */
    Mebibytes,
    /** Exactly "0" or "1". */
    Flag,
    /** A finite decimal number >= 0. */
    Fraction,
    /** A non-empty string. */
    Text,
};

struct Knob
{
    const char *name;
    Kind kind;
    /** Inclusive bounds; used by Count and Mebibytes (in MiB) only. */
    uint64_t min;
    uint64_t max;
    const char *doc;
};

/** Every knob, in the order README.md lists them. */
std::span<const Knob> table();

/**
 * Parse @p value as a strict decimal integer in [@p min, @p max]:
 * digits only, no sign, no whitespace, no hex, no suffix.  Anything
 * else is a fatal() naming @p what (a variable or a flag) and the
 * value.  Shared by the Count knobs and the command-line count flags.
 */
uint64_t parseCount(const char *what, const char *value, uint64_t min,
                    uint64_t max);

/** Count knob @p name, or @p fallback when unset. */
uint64_t count(const char *name, uint64_t fallback);

/** Mebibytes knob @p name in bytes, or @p fallback_bytes when unset. */
uint64_t mebibytes(const char *name, uint64_t fallback_bytes);

/** Flag knob @p name, or @p fallback when unset. */
bool flag(const char *name, bool fallback);

/** Fraction knob @p name, or @p fallback when unset. */
double fraction(const char *name, double fallback);

/** Text knob @p name, or @p fallback when unset. */
std::string text(const char *name, const std::string &fallback);

} // namespace knobs
} // namespace silc

#endif // SILC_COMMON_KNOBS_HH
