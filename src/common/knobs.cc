#include "common/knobs.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/logging.hh"

extern char **environ;

namespace silc {
namespace knobs {

namespace {

constexpr uint64_t kTera = 1'000'000'000'000ULL;

constexpr Knob kTable[] = {
    {"SILC_SCHEME", Kind::Text, 0, 0,
     "scheme for single-scheme runs: a registry name or alias"},
    {"SILC_WORKLOAD", Kind::Text, 0, 0,
     "workload profile for capacity_smoke and the examples"},
    {"SILC_CORES", Kind::Count, 1, 1024, "cores per run"},
    {"SILC_INSTR", Kind::Count, 1, kTera, "instructions per core"},
    {"SILC_NM_MIB", Kind::Mebibytes, 1, 1024 * 1024, "NM capacity"},
    {"SILC_FM_MIB", Kind::Mebibytes, 1, 1024 * 1024, "FM capacity"},
    {"SILC_SEED", Kind::Count, 0, UINT64_MAX, "RNG seed"},
    {"SILC_THREADS", Kind::Count, 1, 1024,
     "worker threads of the parallel runner; 1 runs jobs in sequence"},
    {"SILC_TENANTS", Kind::Count, 1, 256,
     "tenants time-sharing each core's stream"},
    {"SILC_TENANT_CHURN", Kind::Count, 1, kTera,
     "memory ops between tenant arrivals and departures"},
    {"SILC_CHECK", Kind::Flag, 0, 0,
     "run the two-tier correctness oracle in lockstep with every run"},
    {"SILC_JSON", Kind::Text, 0, 0,
     "write a silc.results.v1 document (with telemetry) to this path"},
    {"SILC_EPOCH_TICKS", Kind::Count, 1, kTera,
     "ticks per telemetry epoch"},
    {"SILC_SAMPLE_PERIOD", Kind::Count, 1, kTera,
     "sampling: instructions per core between checkpoints"},
    {"SILC_SAMPLE_WINDOW", Kind::Count, 1, kTera,
     "sampling: measured instructions per core per window"},
    {"SILC_SAMPLE_WARMUP", Kind::Count, 1, kTera,
     "sampling: discarded detailed warm-up before each window"},
    {"SILC_SAMPLE_MIN_WINDOWS", Kind::Count, 1, 1'000'000,
     "sampling: windows before CI-driven early stopping may trigger"},
    {"SILC_SAMPLE_CI_TARGET", Kind::Fraction, 0, 0,
     "sampling: stop once the IPC 95% CI half-width / mean reaches "
     "this; 0 replays every checkpoint"},
};

const Knob *
find(std::string_view name)
{
    for (const Knob &k : kTable) {
        if (name == k.name)
            return &k;
    }
    return nullptr;
}

void
rejectUnknownVariables()
{
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string_view entry(*e);
        if (!entry.starts_with("SILC_"))
            continue;
        const std::string_view name = entry.substr(0, entry.find('='));
        if (find(name) != nullptr)
            continue;
        std::string known;
        for (const Knob &k : kTable) {
            known += known.empty() ? "" : ", ";
            known += k.name;
        }
        fatal("%s is not a SILC_* knob (known: %s)", *e, known.c_str());
    }
}

/** A knob's row and its raw value (nullptr when unset). */
struct Setting
{
    const Knob &knob;
    const char *value;
};

Setting
lookup(const char *name, Kind kind)
{
    static const bool scanned = (rejectUnknownVariables(), true);
    (void)scanned;
    const Knob *k = find(name);
    if (k == nullptr)
        panic("knob %s is not in the knob table", name);
    if (k->kind != kind)
        panic("knob %s read with the wrong kind", name);
    return {*k, std::getenv(name)};
}

} // namespace

std::span<const Knob>
table()
{
    return kTable;
}

uint64_t
parseCount(const char *what, const char *value, uint64_t min,
           uint64_t max)
{
    // strtoull alone would skip leading whitespace, wrap a leading '-'
    // and stop at trailing junk; insist on digits only.
    bool digits = *value != '\0';
    for (const char *c = value; *c != '\0'; ++c)
        digits = digits && *c >= '0' && *c <= '9';
    errno = 0;
    const unsigned long long n =
        digits ? std::strtoull(value, nullptr, 10) : 0;
    if (!digits || errno == ERANGE || n < min || n > max) {
        fatal("%s must be a decimal integer in [%llu, %llu], got '%s'",
              what, static_cast<unsigned long long>(min),
              static_cast<unsigned long long>(max), value);
    }
    return n;
}

uint64_t
count(const char *name, uint64_t fallback)
{
    const auto [k, v] = lookup(name, Kind::Count);
    return v == nullptr ? fallback : parseCount(name, v, k.min, k.max);
}

uint64_t
mebibytes(const char *name, uint64_t fallback_bytes)
{
    const auto [k, v] = lookup(name, Kind::Mebibytes);
    // The 1 TiB cap keeps the << 20 well clear of overflow.
    return v == nullptr ? fallback_bytes
                        : parseCount(name, v, k.min, k.max) << 20;
}

bool
flag(const char *name, bool fallback)
{
    const char *v = lookup(name, Kind::Flag).value;
    if (v == nullptr)
        return fallback;
    if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        fatal("%s must be 0 or 1, got '%s'", name, v);
    return v[0] == '1';
}

double
fraction(const char *name, double fallback)
{
    const char *v = lookup(name, Kind::Fraction).value;
    if (v == nullptr)
        return fallback;
    // Plain decimal only: no sign, whitespace, hex, inf or nan.
    char *end = nullptr;
    const bool decimal = (*v >= '0' && *v <= '9') || *v == '.';
    const double d = decimal && std::strpbrk(v, "xX") == nullptr
        ? std::strtod(v, &end)
        : 0.0;
    if (end == nullptr || *end != '\0' || !std::isfinite(d))
        fatal("%s must be a finite decimal number >= 0, got '%s'", name,
              v);
    return d;
}

std::string
text(const char *name, const std::string &fallback)
{
    const char *v = lookup(name, Kind::Text).value;
    if (v == nullptr)
        return fallback;
    if (*v == '\0')
        fatal("%s must not be empty", name);
    return v;
}

} // namespace knobs
} // namespace silc
