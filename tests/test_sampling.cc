/**
 * @file
 * Statistical sampling subsystem tests (src/sample/): blob
 * serialization, checkpoint round-trips, replay determinism, early
 * stopping, the HMA fallback, and the headline differential property —
 * sampled metrics agree with a full detailed run within the reported
 * 95% confidence intervals.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/serialize.hh"
#include "core/silc_fm.hh"
#include "policy/registry.hh"
#include "sample/sampling.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace silc;
using namespace silc::sim;
using namespace silc::sample;

namespace {

SystemConfig
sampleConfig(const std::string &workload, const std::string &kind,
             uint32_t cores = 4, uint64_t instr = 400'000)
{
    ExperimentOptions opts;
    opts.cores = cores;
    opts.instructions_per_core = instr;
    return makeConfig(workload, kind, opts);
}

/** The locally validated smoke fixture: windows stay inside the CI. */
SamplingConfig
smokeSamplingConfig()
{
    SamplingConfig s;
    s.period = 50'000;
    s.window = 5'000;
    s.warmup = 5'000;
    s.threads = 2;
    return s;
}

/** A checkpoint blob of @p sys, as the sampling controller takes it. */
std::vector<uint8_t>
snapshotBlob(const System &sys)
{
    BlobWriter w;
    sys.snapshotState(w);
    return std::move(w).take();
}

/** @p a and @p b are the same sampled result, report included. */
void
expectSameSampledResult(const SimResult &a, const SimResult &b)
{
    ASSERT_NE(a.sampling, nullptr);
    ASSERT_NE(b.sampling, nullptr);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.llc_misses, b.llc_misses);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.nm_demand_bytes, b.nm_demand_bytes);
    EXPECT_EQ(a.fm_demand_bytes, b.fm_demand_bytes);
    const SamplingReport &ra = *a.sampling;
    const SamplingReport &rb = *b.sampling;
    EXPECT_EQ(ra.checkpoints, rb.checkpoints);
    EXPECT_EQ(ra.windows, rb.windows);
    EXPECT_EQ(ra.early_stopped, rb.early_stopped);
    EXPECT_EQ(ra.warm_instructions, rb.warm_instructions);
    ASSERT_EQ(ra.metrics.size(), rb.metrics.size());
    for (size_t i = 0; i < ra.metrics.size(); ++i) {
        const MetricEstimate &ma = ra.metrics[i];
        const MetricEstimate &mb = rb.metrics[i];
        EXPECT_EQ(ma.name, mb.name);
        EXPECT_EQ(ma.mean, mb.mean) << ma.name;
        EXPECT_EQ(ma.ci_half, mb.ci_half) << ma.name;
        EXPECT_EQ(ma.n, mb.n) << ma.name;
    }
}

} // namespace

// ---- Blob serialization ------------------------------------------------

TEST(Serialize, RoundTrip)
{
    BlobWriter w;
    w.section("TEST");
    w.putU8(0xAB);
    w.putU32(0xDEADBEEF);
    w.putU64(0x0123456789ABCDEFull);
    w.putI64(-42);
    w.putBool(true);
    w.putF64(3.25);
    w.putStr("hello");

    BlobReader r(w.data());
    r.expect("TEST");
    EXPECT_EQ(r.getU8(), 0xAB);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getI64(), -42);
    EXPECT_TRUE(r.getBool());
    EXPECT_EQ(r.getF64(), 3.25);
    EXPECT_EQ(r.getStr(), "hello");
    r.done();
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, TakeMovesTheBufferOut)
{
    BlobWriter w;
    w.section("TEST");
    w.putU64(0x0123456789ABCDEFull);
    const std::vector<uint8_t> copy = w.data();
    const std::vector<uint8_t> taken = std::move(w).take();
    EXPECT_EQ(taken, copy);
    EXPECT_EQ(w.size(), 0u);
}

TEST(SerializeDeath, TruncationDies)
{
    BlobWriter w;
    w.putU32(7);
    BlobReader r(w.data());
    (void)r.getU32();
    EXPECT_DEATH((void)r.getU64(), "truncated");
}

TEST(SerializeDeath, SectionMismatchDies)
{
    BlobWriter w;
    w.section("AAAA");
    BlobReader r(w.data());
    EXPECT_DEATH(r.expect("BBBB"), "section");
}

TEST(SerializeDeath, TrailingBytesDie)
{
    BlobWriter w;
    w.putU32(7);
    w.putU32(9);
    BlobReader r(w.data());
    (void)r.getU32();
    EXPECT_DEATH(r.done(), "trailing");
}

// ---- SamplingConfig ----------------------------------------------------

TEST(SamplingConfigDeath, WindowMustFitPeriod)
{
    SamplingConfig s;
    s.period = 10'000;
    s.warmup = 6'000;
    s.window = 5'000;
    EXPECT_DEATH(s.validate(), "fit within the period");
}

TEST(SamplingConfig, DefaultsValidate)
{
    SamplingConfig s;
    s.validate();
    EXPECT_EQ(s.period, 200'000u);
}

// ---- Student's t -------------------------------------------------------

TEST(StatsAggregatorTest, TCritical95)
{
    EXPECT_NEAR(StatsAggregator::tCritical95(1), 12.706, 1e-3);
    EXPECT_NEAR(StatsAggregator::tCritical95(5), 2.571, 1e-3);
    EXPECT_NEAR(StatsAggregator::tCritical95(30), 2.042, 1e-3);
    EXPECT_NEAR(StatsAggregator::tCritical95(100), 1.96, 1e-3);
}

TEST(StatsAggregatorTest, MeanAndCiHandChecked)
{
    StatsAggregator agg;
    for (double v : {1.0, 2.0, 3.0, 4.0}) {
        WindowSample s;
        s.ipc = v;
        agg.add(s);
    }
    const MetricEstimate e = agg.estimate("ipc");
    EXPECT_EQ(e.n, 4u);
    EXPECT_DOUBLE_EQ(e.mean, 2.5);
    // s = sqrt(5/3), half = t(3) * s / 2 = 3.182 * 0.6455
    EXPECT_NEAR(e.ci_half, 3.182 * std::sqrt(5.0 / 3.0) / 2.0, 1e-3);
}

TEST(StatsAggregatorTest, SingleWindowHasZeroCi)
{
    StatsAggregator agg;
    WindowSample s;
    s.ipc = 1.5;
    agg.add(s);
    const MetricEstimate e = agg.estimate("ipc");
    EXPECT_DOUBLE_EQ(e.mean, 1.5);
    EXPECT_DOUBLE_EQ(e.ci_half, 0.0);
}

// ---- Checkpoints -------------------------------------------------------

TEST(CheckpointTest, RoundTripIsByteExact)
{
    // Every registered scheme that can be checkpointed.
    std::vector<std::string> checked;
    for (const std::string &scheme :
         policy::SchemeRegistry::instance().names()) {
        SCOPED_TRACE(scheme);
        const SystemConfig cfg = sampleConfig("mcf", scheme, 2, 100'000);

        System warm(cfg);
        if (!warm.policyRef().supportsSampling())
            continue;
        checked.push_back(scheme);
        warm.setFunctionalMode(true);
        warm.setPerCoreBudget(30'000);
        ASSERT_TRUE(warm.runToBudget());
        const std::vector<uint8_t> a = snapshotBlob(warm);

        // Restoring into a fresh system and re-capturing must reproduce
        // the blob byte for byte: nothing outside the checkpoint
        // affects it.
        System fresh(cfg);
        BlobReader r(a);
        fresh.restoreState(r);
        const std::vector<uint8_t> b = snapshotBlob(fresh);
        EXPECT_EQ(a, b);
        EXPECT_GT(a.size(), 0u);
    }
    const std::vector<std::string> expected = {
        "fmonly", "rand", "cam", "camp", "pom", "dramcache", "memcache",
        "silcfm"};
    EXPECT_EQ(checked, expected);
}

TEST(CheckpointTest, ReplayFromCheckpointIsDeterministic)
{
    const SystemConfig cfg = sampleConfig("milc", "silcfm", 2,
                                          100'000);

    System warm(cfg);
    warm.setFunctionalMode(true);
    warm.setPerCoreBudget(40'000);
    ASSERT_TRUE(warm.runToBudget());
    const std::vector<uint8_t> blob = snapshotBlob(warm);

    auto replay = [&](uint64_t budget) {
        SystemConfig rcfg = cfg;
        rcfg.instructions_per_core = budget;
        System sys(rcfg);
        BlobReader r(blob);
        sys.restoreState(r);
        EXPECT_TRUE(sys.runToBudget());
        return std::make_pair(sys.currentCycle(),
                              sys.hierarchy().llcMisses());
    };
    const auto a = replay(10'000);
    const auto b = replay(10'000);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(CheckpointDeath, PolicyMismatchDies)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2,
                                          100'000);
    System warm(cfg);
    warm.setFunctionalMode(true);
    warm.setPerCoreBudget(10'000);
    ASSERT_TRUE(warm.runToBudget());
    const std::vector<uint8_t> blob = snapshotBlob(warm);

    SystemConfig other = sampleConfig("mcf", "cam", 2,
                                      100'000);
    System victim(other);
    BlobReader r(blob);
    EXPECT_DEATH(victim.restoreState(r), "does not match");
}

// ---- Functional warming ------------------------------------------------

TEST(FunctionalWarming, RunsFasterShapeAndFootprintMatch)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2,
                                          100'000);

    System detailed(cfg);
    const SimResult full = detailed.run();

    System functional(cfg);
    functional.setFunctionalMode(true);
    ASSERT_TRUE(functional.runToBudget());
    const SimResult warm = functional.collectResult(true);

    // Functional warming executes the same instruction stream against
    // the same translation layer: the touched-page footprint is exact.
    EXPECT_EQ(warm.footprint_pages, full.footprint_pages);
    EXPECT_EQ(warm.instructions, full.instructions);
    // No DRAM traffic may be generated while warming.
    EXPECT_EQ(warm.nm_total_bytes + warm.fm_total_bytes, 0u);
    // Warming finishes in far fewer ticks than detailed execution.
    EXPECT_LT(warm.ticks, full.ticks / 2);
}

// ---- End-to-end sampling ----------------------------------------------

TEST(SamplingEndToEnd, SampledMetricsWithinReportedCi)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm");

    System detailed(cfg);
    const SimResult full = detailed.run();
    const auto *fullp = dynamic_cast<const core::SilcFmPolicy *>(
        &detailed.policyRef());
    ASSERT_NE(fullp, nullptr);
    const double full_swaps_per_kilo = 1000.0 *
        static_cast<double>(fullp->subblockSwaps()) /
        static_cast<double>(full.instructions);
    const double full_fm_p50 =
        detailed.fm().readDelayHistogram().percentile(0.50);
    const double full_fm_p95 =
        detailed.fm().readDelayHistogram().percentile(0.95);

    SamplingController ctl(cfg, smokeSamplingConfig());
    const SimResult sampled = ctl.run();
    ASSERT_NE(sampled.sampling, nullptr);
    const SamplingReport &rep = *sampled.sampling;
    EXPECT_EQ(rep.checkpoints, 8u);
    EXPECT_EQ(rep.windows, 8u);

    const auto within = [&](const char *name, double full_value) {
        const MetricEstimate *e = rep.find(name);
        ASSERT_NE(e, nullptr) << name;
        EXPECT_LE(std::fabs(full_value - e->mean), e->ci_half)
            << name << ": full " << full_value << " vs sampled "
            << e->mean << " +/- " << e->ci_half;
    };
    within("ipc", full.ipc);
    within("mpki", full.mpki);
    within("avg_miss_latency", full.avg_miss_latency);
    within("access_rate", full.access_rate);
    within("swaps_per_kilo", full_swaps_per_kilo);
    within("fm_read_p50", full_fm_p50);
    within("fm_read_p95", full_fm_p95);

    // The synthesized result mirrors the window means.
    EXPECT_DOUBLE_EQ(sampled.ipc, rep.find("ipc")->mean);
    EXPECT_EQ(sampled.instructions, full.instructions);
    EXPECT_GT(sampled.footprint_pages, 0u);
}

TEST(SamplingEndToEnd, DeterministicAcrossPoolWidths)
{
    // 8 checkpoints: more than width + 1 at every width, so the cap on
    // checkpoints in flight holds warming back while replays run.
    const SystemConfig cfg = sampleConfig("gcc", "silcfm", 2,
                                          400'000);
    SamplingConfig s = smokeSamplingConfig();
    s.threads = 1;
    const SimResult r1 = SamplingController(cfg, s).run();
    ASSERT_NE(r1.sampling, nullptr);
    EXPECT_EQ(r1.sampling->checkpoints, 8u);
    EXPECT_EQ(r1.sampling->windows, 8u);
    EXPECT_FALSE(r1.sampling->early_stopped);
    for (unsigned width : {2u, 3u}) {
        SCOPED_TRACE(width);
        s.threads = width;
        expectSameSampledResult(r1, SamplingController(cfg, s).run());
    }
}

TEST(SamplingEndToEnd, EarlyStopAtBatchBoundary)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm");
    SamplingConfig s = smokeSamplingConfig();
    s.min_windows = 1;
    s.ci_target = 10.0; // trivially satisfied after the first batch
    const SimResult r = SamplingController(cfg, s).run();
    ASSERT_NE(r.sampling, nullptr);
    EXPECT_TRUE(r.sampling->early_stopped);
    EXPECT_EQ(r.sampling->windows, 4u); // one kBatch batch
    EXPECT_EQ(r.sampling->checkpoints, 8u);
    // Warming still ran to the last checkpoint position.
    const SimResult all =
        SamplingController(cfg, smokeSamplingConfig()).run();
    EXPECT_EQ(r.footprint_pages, all.footprint_pages);
    EXPECT_EQ(r.instructions, all.instructions);
}

TEST(SamplingEndToEnd, EarlyStopDeterministicAcrossPoolWidths)
{
    // The cut lands at window 4 of 8.  Width 1 has taken checkpoint 4
    // by then and width 3 checkpoints 4-6: their windows must be
    // dropped whether or not their replays already started.
    const SystemConfig cfg = sampleConfig("mcf", "silcfm");
    SamplingConfig s = smokeSamplingConfig();
    s.min_windows = 1;
    s.ci_target = 10.0;
    s.threads = 1;
    const SimResult r1 = SamplingController(cfg, s).run();
    ASSERT_NE(r1.sampling, nullptr);
    EXPECT_TRUE(r1.sampling->early_stopped);
    EXPECT_EQ(r1.sampling->windows, 4u);
    s.threads = 3;
    expectSameSampledResult(r1, SamplingController(cfg, s).run());
}

TEST(SamplingEndToEnd, HmaFallsBackToFullRun)
{
    const SystemConfig cfg = sampleConfig("mcf", "hma", 2,
                                          60'000);
    const SimResult r = runMaybeSampled(cfg, smokeSamplingConfig());
    EXPECT_EQ(r.sampling, nullptr);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_FALSE(r.hit_tick_limit);
    // And the sampled path still works for supported policies.
    EXPECT_TRUE(System(cfg).policyRef().supportsSampling() == false);
}

TEST(SamplingEndToEnd, SupportedPolicyMatrix)
{
    const auto supports = [](const std::string &k) {
        System sys(sampleConfig("mcf", k, 2, 50'000));
        return sys.policyRef().supportsSampling();
    };
    EXPECT_TRUE(supports("silcfm"));
    EXPECT_TRUE(supports("fmonly"));
    EXPECT_TRUE(supports("rand"));
    EXPECT_TRUE(supports("cam"));
    EXPECT_TRUE(supports("camp"));
    EXPECT_TRUE(supports("pom"));
    EXPECT_TRUE(supports("dramcache"));
    EXPECT_TRUE(supports("memcache"));
    EXPECT_FALSE(supports("hma"));
}

// ---- Resumable run loop ------------------------------------------------

TEST(RunToBudget, PausesAtBudgetAndResumes)
{
    const SystemConfig cfg = sampleConfig("mcf", "silcfm", 2,
                                          40'000);
    System sys(cfg);
    sys.setPerCoreBudget(10'000);
    ASSERT_TRUE(sys.runToBudget());
    const Tick t1 = sys.currentCycle();
    EXPECT_EQ(sys.core(0).retired(), 10'000u);
    EXPECT_EQ(sys.core(1).retired(), 10'000u);

    sys.setPerCoreBudget(40'000);
    ASSERT_TRUE(sys.runToBudget());
    EXPECT_GT(sys.currentCycle(), t1);
    EXPECT_EQ(sys.core(0).retired(), 40'000u);
    const SimResult r = sys.collectResult(true);
    EXPECT_EQ(r.instructions, 80'000u);
    EXPECT_FALSE(r.hit_tick_limit);
}
