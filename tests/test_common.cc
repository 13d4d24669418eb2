/**
 * @file
 * Unit tests for the common substrate: types/address math, event queue,
 * statistics, RNG/Zipf, the SILC_* knob table, and the subblock bit
 * vector.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.hh"
#include "common/event_queue.hh"
#include "common/knobs.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/experiment.hh"
#include "scoped_env.hh"

using namespace silc;

// ---- types / address math ----------------------------------------------

TEST(Types, Constants)
{
    EXPECT_EQ(kSubblockSize, 64u);
    EXPECT_EQ(kLargeBlockSize, 2048u);
    EXPECT_EQ(kSubblocksPerBlock, 32u);
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(2048), 11u);
    EXPECT_EQ(floorLog2(3), 1u);
}

TEST(Types, IsPowerOf2)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(96));
}

TEST(Types, Alignment)
{
    EXPECT_EQ(subblockAddr(0x12345), Addr(0x12340));
    EXPECT_EQ(largeBlockAddr(0x12345), Addr(0x12000));
    EXPECT_EQ(alignDown(127, 64), Addr(64));
}

TEST(Types, SubblockOffsetCoversBlock)
{
    // All 32 offsets appear exactly once per large block.
    std::map<uint32_t, int> seen;
    for (Addr a = 0; a < kLargeBlockSize; a += kSubblockSize)
        seen[subblockOffset(a)]++;
    EXPECT_EQ(seen.size(), kSubblocksPerBlock);
    for (auto [off, count] : seen) {
        EXPECT_LT(off, kSubblocksPerBlock);
        EXPECT_EQ(count, 1);
    }
}

TEST(Types, SubblockOffsetIgnoresPage)
{
    EXPECT_EQ(subblockOffset(5 * kLargeBlockSize + 7 * kSubblockSize),
              7u);
}

TEST(Types, SizeLiterals)
{
    EXPECT_EQ(4_KiB, 4096u);
    EXPECT_EQ(16_MiB, uint64_t(16) << 20);
    EXPECT_EQ(1_GiB, uint64_t(1) << 30);
}

// ---- event queue --------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&](Tick) { order.push_back(3); });
    q.schedule(10, [&](Tick) { order.push_back(1); });
    q.schedule(20, [&](Tick) { order.push_back(2); });

    q.runDue(15);
    EXPECT_EQ(order, (std::vector<int>{1}));
    q.runDue(30);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreak)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i](Tick) { order.push_back(i); });
    q.runDue(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CallbackReceivesScheduledTick)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(42, [&](Tick t) { seen = t; });
    q.runDue(100);
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, EventScheduledDuringDrainSameTickRuns)
{
    EventQueue q;
    int fired = 0;
    q.schedule(5, [&](Tick t) {
        ++fired;
        q.schedule(t, [&](Tick) { ++fired; });
    });
    q.runDue(5);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextEventTick)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTick(), kTickNever);
    q.schedule(9, [](Tick) {});
    EXPECT_EQ(q.nextEventTick(), 9u);
}

TEST(EventQueue, CountsExecuted)
{
    EventQueue q;
    for (Tick t = 1; t <= 4; ++t)
        q.schedule(t, [](Tick) {});
    q.runDue(4);
    EXPECT_EQ(q.executed(), 4u);
}

TEST(EventQueue, CancelledEventDoesNotFire)
{
    EventQueue q;
    int fired = 0;
    const EventId id =
        q.scheduleCancellable(10, [&](Tick) { ++fired; });
    q.schedule(10, [&](Tick) { fired += 100; });
    q.cancel(id);
    q.runDue(20);
    EXPECT_EQ(fired, 100);   // only the uncancelled event ran
    EXPECT_EQ(q.executed(), 1u);
    EXPECT_EQ(q.cancelled(), 1u);
}

TEST(EventQueue, CancelThenRearmLater)
{
    // The cancel/re-arm pattern a wakeup consumer uses: drop the stale
    // deadline, schedule the corrected one.
    EventQueue q;
    std::vector<Tick> fires;
    const EventId stale =
        q.scheduleCancellable(50, [&](Tick t) { fires.push_back(t); });
    q.cancel(stale);
    q.scheduleCancellable(30, [&](Tick t) { fires.push_back(t); });
    q.runDue(100);
    EXPECT_EQ(fires, (std::vector<Tick>{30}));
}

TEST(EventQueue, CancelledTombstonesDoNotBlockLaterEvents)
{
    EventQueue q;
    int fired = 0;
    for (int i = 0; i < 8; ++i) {
        const EventId id =
            q.scheduleCancellable(5, [&](Tick) { fired += 1000; });
        q.cancel(id);
    }
    q.schedule(6, [&](Tick) { ++fired; });
    q.runDue(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.cancelled(), 8u);
    EXPECT_TRUE(q.empty());
}

// ---- small function ------------------------------------------------------

TEST(SmallFunction, InvokesAndReportsInlineStorage)
{
    int hits = 0;
    SmallFunction<void(Tick), 64> fn = [&hits](Tick t) {
        hits += static_cast<int>(t);
    };
    ASSERT_TRUE(static_cast<bool>(fn));
    EXPECT_TRUE(fn.storedInline());
    fn(3);
    fn(4);
    EXPECT_EQ(hits, 7);
}

TEST(SmallFunction, EmptyIsFalse)
{
    SmallFunction<void(Tick), 64> fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    SmallFunction<void(Tick), 64> null_fn = nullptr;
    EXPECT_FALSE(static_cast<bool>(null_fn));
}

TEST(SmallFunction, OversizedCaptureFallsBackToHeap)
{
    struct Big
    {
        uint64_t words[16];  // 128 bytes > the 64-byte buffer
    };
    Big big{};
    big.words[15] = 42;
    uint64_t seen = 0;
    SmallFunction<void(Tick), 64> fn = [big, &seen](Tick) {
        seen = big.words[15];
    };
    EXPECT_FALSE(fn.storedInline());
    fn(0);
    EXPECT_EQ(seen, 42u);
}

TEST(SmallFunction, MoveTransfersOwnership)
{
    auto counter = std::make_shared<int>(0);
    SmallFunction<void(Tick), 64> a = [counter](Tick) { ++*counter; };
    SmallFunction<void(Tick), 64> b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    b(0);
    EXPECT_EQ(*counter, 1);

    // Destroying the callable releases its captures.
    b = nullptr;
    EXPECT_EQ(counter.use_count(), 1);
}

TEST(SmallFunction, HoldsMoveOnlyCallable)
{
    auto owned = std::make_unique<int>(9);
    SmallFunction<int(Tick), 64> fn =
        [owned = std::move(owned)](Tick t) {
            return *owned + static_cast<int>(t);
        };
    EXPECT_EQ(fn(1), 10);
}

// ---- stats ---------------------------------------------------------------

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(0.5);
    d.sample(9.5);
    d.sample(-1.0);
    d.sample(11.0);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[4], 1u);
    EXPECT_EQ(d.underflows(), 1u);
    EXPECT_EQ(d.overflows(), 1u);
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

// ---- rng -----------------------------------------------------------------

TEST(Rng, DeterministicForSeed)
{
    Rng a(123), b(123), c(124);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        uint64_t v = rng.between(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Zipf, AlphaZeroIsUniform)
{
    Rng rng(5);
    ZipfSampler z(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i)
        counts[z.sample(rng)]++;
    for (int c : counts)
        EXPECT_NEAR(c, 5000, 500);
}

TEST(Zipf, SkewPrefersLowRanks)
{
    Rng rng(5);
    ZipfSampler z(1000, 1.0);
    uint64_t low = 0, total = 100000;
    for (uint64_t i = 0; i < total; ++i) {
        if (z.sample(rng) < 10)
            ++low;
    }
    // With alpha=1 over 1000 items, the top-10 ranks draw ~39% of
    // samples (H(10)/H(1000)); uniform would give 1%.
    EXPECT_GT(low, total / 5);
}

TEST(Zipf, SamplesInRange)
{
    Rng rng(3);
    ZipfSampler z(37, 0.8);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(z.sample(rng), 37u);
}

// ---- bit vector -------------------------------------------------------------

TEST(SubblockVector, StartsEmpty)
{
    SubblockVector bv;
    EXPECT_TRUE(bv.none());
    EXPECT_FALSE(bv.full());
    EXPECT_EQ(bv.count(), 0u);
}

TEST(SubblockVector, SetTestClear)
{
    SubblockVector bv;
    bv.set(0);
    bv.set(31);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(31));
    EXPECT_FALSE(bv.test(15));
    EXPECT_EQ(bv.count(), 2u);
    bv.clear(0);
    EXPECT_FALSE(bv.test(0));
    EXPECT_EQ(bv.count(), 1u);
}

TEST(SubblockVector, AllAndClearAll)
{
    SubblockVector bv = SubblockVector::all();
    EXPECT_TRUE(bv.full());
    EXPECT_EQ(bv.count(), 32u);
    bv.clearAll();
    EXPECT_TRUE(bv.none());
    bv.setAll();
    EXPECT_TRUE(bv.full());
}

TEST(SubblockVector, RawRoundTrip)
{
    SubblockVector bv;
    bv.set(3);
    bv.set(17);
    SubblockVector copy(bv.raw());
    EXPECT_EQ(copy, bv);
}

TEST(SubblockVector, ToStringMarksBits)
{
    SubblockVector bv;
    bv.set(1);
    std::string s = bv.toString();
    ASSERT_EQ(s.size(), 32u);
    EXPECT_EQ(s[0], '0');
    EXPECT_EQ(s[1], '1');
}

// ---- logging ----------------------------------------------------------------

TEST(Logging, FormatsPrintfStyle)
{
    EXPECT_EQ(logFormat("x=%d s=%s", 5, "hi"), "x=5 s=hi");
}

TEST(Logging, WarnIncrementsCounter)
{
    const uint64_t before = warnCount();
    warn("test warning %d", 1);
    EXPECT_EQ(warnCount(), before + 1);
}

// ---- additional property coverage ---------------------------------------------

TEST(Zipf, LowerRankNeverLessPopularOnAverage)
{
    Rng rng(21);
    ZipfSampler z(64, 0.9);
    std::vector<uint64_t> counts(64, 0);
    for (int i = 0; i < 200'000; ++i)
        counts[z.sample(rng)]++;
    // Compare coarse halves to avoid noise: the first half must get
    // clearly more than the second.
    uint64_t lo = 0, hi = 0;
    for (int i = 0; i < 32; ++i)
        lo += counts[i];
    for (int i = 32; i < 64; ++i)
        hi += counts[i];
    EXPECT_GT(lo, 2 * hi);
}

TEST(EventQueue, InterleavedScheduleAndDrain)
{
    EventQueue q;
    std::vector<Tick> fired;
    for (Tick t = 0; t < 50; ++t) {
        q.schedule(t * 2 + 1, [&](Tick when) { fired.push_back(when); });
        q.runDue(t * 2);
    }
    q.runDue(1000);
    ASSERT_EQ(fired.size(), 50u);
    for (size_t i = 1; i < fired.size(); ++i)
        EXPECT_LT(fired[i - 1], fired[i]);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue q;
    q.runDue(100);
    EXPECT_DEATH(q.schedule(50, [](Tick) {}), "past");
}

TEST(SubblockVector, IndependenceOfBits)
{
    SubblockVector bv;
    for (uint32_t i = 0; i < kSubblocksPerBlock; i += 2)
        bv.set(i);
    for (uint32_t i = 0; i < kSubblocksPerBlock; ++i)
        EXPECT_EQ(bv.test(i), i % 2 == 0);
    EXPECT_EQ(bv.count(), 16u);
}

// ---- SILC_* knob table --------------------------------------------------

namespace {

using knobs::Kind;
using knobs::Knob;

/** Read @p k through the reader its kind selects, rendered as text. */
std::string
readKnob(const Knob &k)
{
    switch (k.kind) {
      case Kind::Count:
        return std::to_string(knobs::count(k.name, 77));
      case Kind::Mebibytes:
        return std::to_string(knobs::mebibytes(k.name, 77));
      case Kind::Flag:
        return knobs::flag(k.name, true) ? "1" : "0";
      case Kind::Fraction:
        return std::to_string(knobs::fraction(k.name, 0.5));
      case Kind::Text:
        return knobs::text(k.name, "fallback");
    }
    return "";
}

/** What readKnob() returns for an unset knob. */
std::string
fallbackOf(const Knob &k)
{
    switch (k.kind) {
      case Kind::Count:
      case Kind::Mebibytes:
        return "77";
      case Kind::Flag:
        return "1";
      case Kind::Fraction:
        return std::to_string(0.5);
      case Kind::Text:
        return "fallback";
    }
    return "";
}

/** (value, readKnob() result) pairs that must parse. */
std::vector<std::pair<std::string, std::string>>
validValues(const Knob &k)
{
    const std::string lo = std::to_string(k.min);
    const std::string hi = std::to_string(k.max);
    switch (k.kind) {
      case Kind::Count:
        return {{lo, lo}, {hi, hi}};
      case Kind::Mebibytes:
        return {{lo, std::to_string(k.min << 20)},
                {hi, std::to_string(k.max << 20)}};
      case Kind::Flag:
        return {{"0", "0"}, {"1", "1"}};
      case Kind::Fraction:
        return {{"0", std::to_string(0.0)},
                {"0.25", std::to_string(0.25)},
                {"1e-3", std::to_string(0.001)}};
      case Kind::Text:
        return {{"mcf", "mcf"}};
    }
    return {};
}

/** Values that must be fatal, naming the knob. */
std::vector<std::string>
badValues(const Knob &k)
{
    switch (k.kind) {
      case Kind::Count:
      case Kind::Mebibytes: {
        std::vector<std::string> bad = {"", "abc", "4abc", " 4", "4 ",
                                        "-1", "+4", "0x10", "7k",
                                        "99999999999999999999"};
        bad.push_back(k.max == UINT64_MAX ? "18446744073709551616"
                                          : std::to_string(k.max + 1));
        if (k.min >= 1)
            bad.push_back("0");
        return bad;
      }
      case Kind::Flag:
        return {"", "2", "true", "yes", " 1", "-1"};
      case Kind::Fraction:
        return {"", "abc", "4abc", " 4", "-1", "+1", "0x10", "inf",
                "nan", "1e999"};
      case Kind::Text:
        return {""};
    }
    return {};
}

class KnobRow : public testing::TestWithParam<Knob>
{
};

} // namespace

namespace silc::knobs {

/** Name the row in gtest failure messages. */
void
PrintTo(const Knob &k, std::ostream *os)
{
    *os << k.name;
}

} // namespace silc::knobs

TEST_P(KnobRow, UnsetGivesFallback)
{
    ::unsetenv(GetParam().name);
    EXPECT_EQ(readKnob(GetParam()), fallbackOf(GetParam()));
}

TEST_P(KnobRow, ValidValuesParse)
{
    for (const auto &[value, expected] : validValues(GetParam())) {
        ScopedEnv e(GetParam().name, value.c_str());
        EXPECT_EQ(readKnob(GetParam()), expected) << "value '" << value
                                                  << "'";
    }
}

TEST_P(KnobRow, BadValuesAreFatalAndNameTheKnob)
{
    for (const std::string &value : badValues(GetParam())) {
        ScopedEnv e(GetParam().name, value.c_str());
        EXPECT_EXIT(readKnob(GetParam()), testing::ExitedWithCode(1),
                    GetParam().name)
            << "value '" << value << "'";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKnobs, KnobRow,
    testing::ValuesIn(knobs::table().begin(), knobs::table().end()),
    [](const testing::TestParamInfo<Knob> &info) {
        return std::string(info.param.name);
    });

TEST(KnobsDeath, UnlistedNameOrWrongKindPanics)
{
    EXPECT_DEATH(knobs::count("SILC_NOT_A_KNOB", 1), "not in the knob table");
    EXPECT_DEATH(knobs::flag("SILC_CORES", false), "wrong kind");
}

// Values the pre-table parsers accepted or misreported.

TEST(KnobsDeath, NegativeAndOverflowingSeedFatal)
{
    {
        ScopedEnv e("SILC_SEED", "-1");
        EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SEED");
    }
    {
        ScopedEnv e("SILC_SEED", "99999999999999999999");
        EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SEED");
    }
}

TEST(KnobsDeath, CheckTrueFatalNamingTheKnob)
{
    ScopedEnv e("SILC_CHECK", "true");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(),
                 "SILC_CHECK must be 0 or 1, got 'true'");
}

TEST(KnobsDeath, ZeroEpochTicksFatalAtStartup)
{
    ScopedEnv e("SILC_EPOCH_TICKS", "0");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_EPOCH_TICKS");
}

TEST(KnobsDeath, UnknownSilcVariableFatal)
{
    // The environment is scanned once per process, on the first read;
    // the threadsafe style re-executes the binary so that scan happens
    // inside the death test even if this process already read a knob.
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv e("SILC_CORE", "2");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(),
                 "SILC_CORE=2 is not a SILC_\\* knob");
}

TEST(Knobs, ReadmeListsExactlyTheTable)
{
    std::ifstream in(SILC_README_PATH);
    ASSERT_TRUE(in) << "cannot open " << SILC_README_PATH;
    std::stringstream text;
    text << in.rdbuf();
    const std::string readme = text.str();

    std::set<std::string> documented;
    const std::regex knob_name("SILC_[A-Z0-9_]*[A-Z0-9]");
    for (std::sregex_iterator it(readme.begin(), readme.end(), knob_name),
         end;
         it != end; ++it)
        documented.insert(it->str());

    std::set<std::string> table;
    for (const Knob &k : knobs::table()) {
        table.insert(k.name);
        // Each knob has its own row in README's knob table.
        EXPECT_NE(readme.find(std::string("| `") + k.name + "` |"),
                  std::string::npos)
            << k.name;
    }
    EXPECT_EQ(documented, table);
    EXPECT_EQ(table.size(), 18u);
    EXPECT_EQ(knobs::table().size(), table.size()); // no duplicate rows
}

// SILC_SCHEME is validated eagerly against the scheme registry so a
// typo fails at startup, not minutes into a bench matrix.

TEST(SchemeKnobDeath, UnknownFatal)
{
    ScopedEnv e("SILC_SCHEME", "alloy");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SCHEME");
}

TEST(SchemeKnobDeath, EmptyFatal)
{
    ScopedEnv e("SILC_SCHEME", "");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SCHEME");
}

TEST(SchemeKnobDeath, JunkFatal)
{
    // Case matters: registry names are lowercase.
    ScopedEnv e("SILC_SCHEME", "SILC-FM");
    EXPECT_DEATH(sim::ExperimentOptions::fromEnv(), "SILC_SCHEME");
}

TEST(SchemeKnob, ValidNameParses)
{
    ScopedEnv e("SILC_SCHEME", "dramcache");
    EXPECT_EQ(sim::ExperimentOptions::fromEnv().scheme, "dramcache");
}

TEST(SchemeKnob, AliasParses)
{
    // Aliases pass validation; resolution to the canonical scheme
    // happens at policy-construction time via the registry.
    ScopedEnv e("SILC_SCHEME", "cameo");
    EXPECT_EQ(sim::ExperimentOptions::fromEnv().scheme, "cameo");
}

// ---- distribution percentiles / differencing -----------------------------

TEST(Stats, PercentileOfEmptyDistributionIsZero)
{
    stats::Distribution d(0.0, 10.0, 5);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 0.0);
}

TEST(Stats, PercentileOfSingleSample)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(3.0);
    // Every quantile lands inside the one populated bucket [2, 4).
    for (double p : {0.01, 0.5, 0.99}) {
        EXPECT_GE(d.percentile(p), 2.0);
        EXPECT_LE(d.percentile(p), 4.0);
    }
}

TEST(Stats, PercentileClampsOutOfRangeP)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(5.0);
    EXPECT_DOUBLE_EQ(d.percentile(-1.0), d.percentile(0.0));
    EXPECT_DOUBLE_EQ(d.percentile(2.0), d.percentile(1.0));
}

TEST(Stats, PercentileSaturatesAtRangeEdges)
{
    stats::Distribution d(0.0, 10.0, 5);
    d.sample(-5.0); // underflow
    d.sample(15.0); // overflow
    EXPECT_DOUBLE_EQ(d.percentile(0.25), 0.0);  // min()
    EXPECT_DOUBLE_EQ(d.percentile(0.99), 10.0); // max()
}

TEST(Stats, DistributionMinusYieldsWindowSamples)
{
    stats::Distribution early(0.0, 10.0, 5);
    early.sample(1.0);
    early.sample(-2.0);
    stats::Distribution late = early; // snapshot
    late.sample(5.0);
    late.sample(5.5);
    late.sample(12.0);

    const stats::Distribution delta = late.minus(early);
    EXPECT_EQ(delta.samples(), 3u);
    EXPECT_EQ(delta.underflows(), 0u);
    EXPECT_EQ(delta.overflows(), 1u);
    EXPECT_EQ(delta.buckets()[2], 2u);
    // Mean of the window-only samples: (5 + 5.5 + 12) / 3.
    EXPECT_NEAR(delta.mean(), 22.5 / 3.0, 1e-12);
}

TEST(Stats, DistributionMinusSelfIsEmpty)
{
    stats::Distribution d(0.0, 10.0, 4);
    d.sample(1.0);
    const stats::Distribution delta = d.minus(d);
    EXPECT_EQ(delta.samples(), 0u);
    EXPECT_DOUBLE_EQ(delta.percentile(0.5), 0.0);
}

TEST(Rng, StateRoundTrip)
{
    Rng a(123);
    (void)a.next();
    (void)a.next();
    const auto saved = a.state();
    Rng b(999);
    b.setState(saved);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(a.next(), b.next());
}
