/**
 * @file
 * The parallel experiment layer: ThreadPool execution, SILC_THREADS
 * parsing, and — the properties the bench tables depend on —
 * bit-identical results between sequential and parallel runs, a
 * baseline cache that computes each workload's no-NM denominator
 * exactly once no matter how many threads request it, and the table
 * a Grid prints.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "sim/parallel.hh"
#include "scoped_env.hh"

using namespace silc;
using namespace silc::sim;

namespace {

/** Tiny but non-trivial scale so a full grid stays fast. */
ExperimentOptions
tinyOptions()
{
    ExperimentOptions opts;
    opts.cores = 2;
    opts.instructions_per_core = 20'000;
    return opts;
}

/** One table row as printTableRow renders it. */
std::string
tableRow(const std::string &label, const std::vector<double> &values)
{
    std::string line;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%-10s", label.c_str());
    line += buf;
    for (double v : values) {
        std::snprintf(buf, sizeof(buf), " %9.3f", v);
        line += buf;
    }
    return line + "\n";
}

} // namespace

TEST(ThreadPoolTest, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    // Destruction drains the queues before joining.
    {
        ThreadPool inner(2);
        for (int i = 0; i < 100; ++i)
            inner.submit([&count] { ++count; });
    }
    while (count.load() < 200)
        std::this_thread::yield();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, IdleWorkerTakesQueuedWorkWhileAnotherBlocks)
{
    // The first task to run blocks its worker until every other task has
    // finished, so the short tasks still queued behind it can only
    // complete if the second worker takes them from the shared queue.
    ThreadPool pool(2);
    std::atomic<bool> release{false};
    std::atomic<int> shorts{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&] {
            if (!release.load()) {
                // First task to run becomes the blocker.
                bool expected = false;
                if (release.compare_exchange_strong(expected, true)) {
                    while (shorts.load() < 7)
                        std::this_thread::yield();
                    return;
                }
            }
            ++shorts;
        });
    }
    while (shorts.load() < 7)
        std::this_thread::yield();
    EXPECT_EQ(shorts.load(), 7);
}

TEST(ParallelThreadsTest, UnsetKnobFallsBackToHardware)
{
    ASSERT_EQ(unsetenv("SILC_THREADS"), 0);
    EXPECT_GE(parallelThreadsFromEnv(), 1u);
}

TEST(ParallelRunnerTest, BitIdenticalToSequentialRunner)
{
    const ExperimentOptions opts = tinyOptions();
    const std::vector<std::string> workloads = {"mcf", "milc", "lbm"};
    const std::vector<std::string> kinds = {"silcfm", "cam"};

    const ScopedEnv threads("SILC_THREADS", "4");
    ParallelRunner par(opts);  // picks up SILC_THREADS
    ASSERT_EQ(par.threads(), 4u);

    std::vector<std::vector<ParallelRunner::Job>> jobs(workloads.size());
    for (size_t w = 0; w < workloads.size(); ++w)
        for (const std::string &kind : kinds)
            jobs[w].push_back(par.submit(workloads[w], kind));

    for (size_t w = 0; w < workloads.size(); ++w) {
        for (size_t k = 0; k < kinds.size(); ++k) {
            const SimResult s =
                System(makeConfig(workloads[w], kinds[k], opts)).run();
            const SimResult p = jobs[w][k].get();
            EXPECT_EQ(s.ticks, p.ticks)
                << workloads[w] << "/" << kinds[k];
            EXPECT_EQ(s.instructions, p.instructions);
            EXPECT_EQ(s.llc_misses, p.llc_misses);
            EXPECT_EQ(s.nm_total_bytes, p.nm_total_bytes);
            EXPECT_EQ(s.fm_total_bytes, p.fm_total_bytes);
            EXPECT_EQ(s.migration_bytes, p.migration_bytes);
            // The speedup's cached denominator is the sequential
            // baseline run.
            const SimResult base =
                System(makeConfig(workloads[w], "fmonly", opts)).run();
            EXPECT_DOUBLE_EQ(static_cast<double>(base.ticks) /
                                 static_cast<double>(s.ticks),
                             par.speedup(p));
        }
    }
    EXPECT_EQ(par.jobsCompleted(),
              workloads.size() * kinds.size() + workloads.size());
}

TEST(ParallelRunnerTest, BaselineComputedExactlyOnce)
{
    ParallelRunner runner(tinyOptions(), 4);

    // Hammer the cache from many external threads at once: everyone
    // must see the same ticks and only one baseline simulation may run.
    constexpr int kRequesters = 8;
    std::vector<Tick> ticks(kRequesters, 0);
    std::vector<std::thread> threads;
    for (int i = 0; i < kRequesters; ++i) {
        threads.emplace_back([&runner, &ticks, i] {
            ticks[static_cast<size_t>(i)] = runner.baselineTicks("mcf");
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(runner.baselineRuns(), 1u);
    for (int i = 1; i < kRequesters; ++i)
        EXPECT_EQ(ticks[static_cast<size_t>(i)], ticks[0]);

    // FmOnly submissions reuse the cache instead of re-running.
    ParallelRunner::Job job = runner.submit("mcf", "fmonly");
    EXPECT_EQ(job.get().ticks, ticks[0]);
    EXPECT_EQ(runner.baselineRuns(), 1u);
}

TEST(ParallelRunnerTest, SampledFullDetailJobDividesByFullBaseline)
{
    // HMA cannot checkpoint, so under sampling it runs in full detail;
    // its speedup must divide by a full-detail baseline, not by the
    // sampled one the other schemes share.
    const ExperimentOptions opts = tinyOptions();
    ParallelRunner runner(opts, 2);
    sample::SamplingConfig scfg;
    scfg.period = 5'000;
    scfg.window = 1'000;
    scfg.warmup = 1'000;
    runner.setSampling(scfg);

    const Tick sampled_base = runner.baselineTicks("mcf");
    const SimResult r = runner.submit("mcf", "hma").get();
    ASSERT_FALSE(r.sampling);
    const SimResult full_base =
        System(makeConfig("mcf", "fmonly", opts)).run();
    ASSERT_NE(full_base.ticks, sampled_base);
    EXPECT_DOUBLE_EQ(runner.speedup(r),
                     static_cast<double>(full_base.ticks) /
                         static_cast<double>(r.ticks));
    EXPECT_EQ(runner.fullBaseline("mcf").get().ticks, full_base.ticks);
    // One sampled and one full-detail baseline, each run once.
    EXPECT_EQ(runner.baselineRuns(), 2u);
}

TEST(GridTest, SampledSpeedupGridNamesFullDetailColumns)
{
    const ExperimentOptions opts = tinyOptions();
    const std::vector<std::string> schemes = {"hma", "silcfm"};
    ParallelRunner runner(opts, 2);
    sample::SamplingConfig scfg;
    scfg.period = 5'000;
    scfg.window = 1'000;
    scfg.warmup = 1'000;
    runner.setSampling(scfg);

    testing::internal::CaptureStdout();
    Grid(runner, {"mcf"}, schemes,
         [&](const std::string &workload, size_t col) {
             return makeConfig(workload, schemes[col], opts);
         })
        .print();
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("full detail (cannot checkpoint), divided by a "
                       "full-detail baseline: hma\n"),
              std::string::npos)
        << out;
    EXPECT_EQ(runner.baselineRuns(), 2u);
}

TEST(ParallelRunnerTest, LogThreadTagRoundTrips)
{
    logSetThreadTag("unit/test");
    EXPECT_EQ(logThreadTag(), "unit/test");
    logSetThreadTag("");
    EXPECT_EQ(logThreadTag(), "");
}

TEST(GridTest, SpeedupGridPrintsHandComputedRowsAndGeomean)
{
    const ExperimentOptions opts = tinyOptions();
    const std::vector<std::string> workloads = {"mcf", "lbm"};
    const std::vector<std::string> schemes = {"silcfm", "cam"};

    // Reference: direct sequential runs.
    std::vector<std::vector<double>> speedups(workloads.size());
    std::vector<double> col0;
    std::vector<double> col1;
    for (size_t w = 0; w < workloads.size(); ++w) {
        const double base = static_cast<double>(
            System(makeConfig(workloads[w], "fmonly", opts)).run().ticks);
        for (const std::string &scheme : schemes) {
            const Tick t =
                System(makeConfig(workloads[w], scheme, opts)).run().ticks;
            speedups[w].push_back(base / static_cast<double>(t));
        }
        col0.push_back(speedups[w][0]);
        col1.push_back(speedups[w][1]);
    }
    const std::vector<double> means = {
        std::sqrt(col0[0] * col0[1]), std::sqrt(col1[0] * col1[1])};

    ParallelRunner runner(opts, 2);
    testing::internal::CaptureStdout();
    const std::vector<double> printed =
        Grid(runner, workloads, schemes,
             [&](const std::string &workload, size_t col) {
                 return makeConfig(workload, schemes[col], opts);
             })
            .print();
    const std::string out = testing::internal::GetCapturedStdout();

    ASSERT_EQ(printed.size(), 2u);
    EXPECT_NEAR(printed[0], means[0], 1e-12);
    EXPECT_NEAR(printed[1], means[1], 1e-12);
    EXPECT_NE(out.find(tableRow("mcf", speedups[0])), std::string::npos)
        << out;
    EXPECT_NE(out.find(tableRow("lbm", speedups[1])), std::string::npos)
        << out;
    EXPECT_NE(out.find(tableRow("geomean", printed)), std::string::npos)
        << out;
    // Two baselines plus four cells.
    EXPECT_EQ(runner.baselineRuns(), 2u);
    EXPECT_EQ(runner.jobsCompleted(), 6u);
}

TEST(GridTest, NmShareGridAveragesAndSubmitsNoBaseline)
{
    const ExperimentOptions opts = tinyOptions();
    const std::vector<std::string> workloads = {"mcf", "lbm"};
    const std::vector<std::string> schemes = {"silcfm", "cam"};
    const std::string json =
        testing::TempDir() + "grid_nm_share_test.json";

    std::vector<double> means;
    std::vector<double> printed;
    {
        ParallelRunner runner(opts, 2);
        runner.setJsonPath(json);
        testing::internal::CaptureStdout();
        printed = Grid(runner, workloads, schemes,
                       [&](const std::string &workload, size_t col) {
                           return makeConfig(workload, schemes[col], opts);
                       },
                       Grid::Metric::NmShare)
                      .print();
        const std::string out = testing::internal::GetCapturedStdout();

        for (const std::string &scheme : schemes) {
            double sum = 0.0;
            for (const std::string &w : workloads) {
                sum += System(makeConfig(w, scheme, opts))
                           .run()
                           .nmDemandFraction();
            }
            means.push_back(sum / 2.0);
        }
        EXPECT_NE(out.find(tableRow("average", means)), std::string::npos)
            << out;
        EXPECT_EQ(out.find("geomean"), std::string::npos) << out;
        EXPECT_EQ(runner.baselineRuns(), 0u);
        EXPECT_EQ(runner.jobsCompleted(), 4u);
    } // the runner writes the JSON document here

    ASSERT_EQ(printed.size(), 2u);
    EXPECT_DOUBLE_EQ(printed[0], means[0]);
    EXPECT_DOUBLE_EQ(printed[1], means[1]);

    std::ifstream in(json);
    std::stringstream doc;
    doc << in.rdbuf();
    size_t runs = 0;
    for (size_t pos = doc.str().find("\"scheme\":");
         pos != std::string::npos;
         pos = doc.str().find("\"scheme\":", pos + 1))
        ++runs;
    EXPECT_EQ(runs, 4u);
    std::remove(json.c_str());
}
