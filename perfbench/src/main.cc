/**
 * @file
 * silc_perfbench: the benchmark's measuring program.  perfbench/run.py
 * builds it and runs one mode per fresh process:
 *
 *   silc_perfbench measure --workload W --seed N --seconds S [--tiny]
 *       set-up timing, then untraced repetitions for S seconds; prints
 *       the end-to-end metrics and the model outputs.
 *   silc_perfbench trace   --workload W --seed N --seconds S [--tiny]
 *       alternating untraced / traced repetitions plus the standalone
 *       probes; prints the per-layer metrics.
 *   silc_perfbench check   --workload W --seed N [--tiny]
 *       short oracle-checked runs of the workload's configuration.
 *
 * Informational lines start with "# "; the last line of standard output
 * is one JSON object: {"attempted", "failed", "errors", "metrics",
 * "model"}.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string mode;
    Params params;
    double seconds = 10.0;
};

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        silc::fatal("usage: silc_perfbench measure|trace|check "
                    "--workload W [--seed N] [--seconds S] [--tiny]");
    Args a;
    a.mode = argv[1];
    if (a.mode != "measure" && a.mode != "trace" && a.mode != "check")
        silc::fatal("unknown mode '%s'", a.mode.c_str());
    bool have_workload = false;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--tiny") {
            a.params.scale = Scale::Tiny;
            continue;
        }
        if (i + 1 >= argc)
            silc::fatal("%s needs a value", flag.c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.params.workload = parseWorkload(value);
            have_workload = true;
        } else if (flag == "--seed") {
            a.params.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                silc::fatal("--seed: expected an integer, got '%s'",
                            value.c_str());
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(a.seconds > 0.0))
                silc::fatal("--seconds: expected a positive number");
        } else {
            silc::fatal("unknown flag '%s'", flag.c_str());
        }
    }
    if (!have_workload)
        silc::fatal("--workload is required");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Accumulates the result line. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value)) {
            error(name + " is not finite");
            value = 0.0;
        }
        metrics_.push_back(jsonKey(name) + "{\"value\": " + num(value) +
                           ", \"unit\": \"" + unit + "\"}");
    }

    void
    model(const std::string &name, double value)
    {
        model_.push_back(jsonKey(name) + num(value));
    }

    void
    error(const std::string &what)
    {
        std::printf("# ERROR %s\n", what.c_str());
        std::string escaped;
        for (char c : what) {
            if (c == '"' || c == '\\')
                escaped += '\\';
            escaped += c;
        }
        errors_.push_back("\"" + escaped + "\"");
    }

    void attempt(uint64_t n) { attempted_ += n; }
    void fail(uint64_t n) { failed_ += n; }

    void
    print() const
    {
        std::printf("{\"attempted\": %llu, \"failed\": %llu, "
                    "\"errors\": [%s], \"metrics\": {%s}, "
                    "\"model\": {%s}}\n",
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_),
                    join(errors_).c_str(), join(metrics_).c_str(),
                    join(model_).c_str());
    }

  private:
    static std::string
    jsonKey(const std::string &name)
    {
        return "\"" + name + "\": ";
    }

    static std::string
    num(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

    static std::string
    join(const std::vector<std::string> &parts)
    {
        std::string out;
        for (const std::string &p : parts) {
            if (!out.empty())
                out += ", ";
            out += p;
        }
        return out;
    }

    std::vector<std::string> metrics_;
    std::vector<std::string> model_;
    std::vector<std::string> errors_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Record one repetition's correctness: budgets, and equality with the
 *  first repetition (the simulator is deterministic). */
void
checkRepetition(const Params &p, const RunOutput &out,
                const RunOutput *first, const char *what, Report &rep)
{
    rep.attempt(out.results.size());
    std::string err = checkBudgets(p, out);
    if (err.empty() && first != nullptr) {
        for (size_t i = 0; i < out.results.size() && err.empty(); ++i)
            err = diffResults(first->results[i], out.results[i]);
    }
    if (!err.empty()) {
        rep.fail(1);
        rep.error(std::string(what) + ": " + err);
    }
}

/**
 * Peak resident memory of this process image since the last
 * resetPeakRss(), from VmHWM.  (getrusage's ru_maxrss would carry the
 * high-water mark of the process that exec'd this one across the exec.)
 */
double
peakRssMib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr)
        found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    std::fclose(f);
    return static_cast<double>(kib) / 1024.0;
}

/** Restart VmHWM from the current RSS, so each repetition has its own
 *  peak (the process-wide maximum is an extreme of many). */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/** Host seconds to construct every System the workload builds. */
double
setupSeconds(const std::vector<silc::sim::SystemConfig> &configs)
{
    double total = 0.0;
    for (const auto &cfg : configs) {
        const Clock::time_point t0 = Clock::now();
        silc::sim::System sys(cfg);
        total += secondsBetween(t0, Clock::now());
    }
    return total;
}

int
measure(const Args &a)
{
    const Params &p = a.params;
    Report rep;

    // Set-up: construct every System the workload builds, in passes
    // spread over the whole run (the host's page-fault cost drifts over
    // seconds, and set-up is dominated by it); report the median pass.
    const std::vector<silc::sim::SystemConfig> configs = setupConfigs(p);
    std::vector<double> setups;
    auto setupPasses = [&](double seconds, size_t min_passes) {
        const Clock::time_point s0 = Clock::now();
        for (size_t n = 0; n < min_passes ||
             secondsBetween(s0, Clock::now()) < seconds; ++n)
            setups.push_back(setupSeconds(configs));
    };
    setupPasses(0.1, 5);

    // One discarded repetition: page-faults the heap and lets lazy
    // initialisation finish before timing.
    const RunOutput first = runWorkload(p);
    checkRepetition(p, first, nullptr, "warm-up repetition", rep);

    std::vector<double> minstr, mticks, jobs, rss;
    const Clock::time_point t0 = Clock::now();
    while (minstr.size() < 3 ||
           secondsBetween(t0, Clock::now()) < a.seconds) {
        resetPeakRss();
        const RunOutput out = runWorkload(p);
        rss.push_back(peakRssMib());
        checkRepetition(p, out, &first, "timed repetition", rep);
        minstr.push_back(simInstructions(out) / 1e6 / out.wall_s);
        mticks.push_back(simTicks(out) / 1e6 / out.wall_s);
        jobs.push_back(static_cast<double>(out.jobs) / out.wall_s);
        setupPasses(0.03, 1);
    }

    std::printf("# %s: %zu timed repetitions of %llu job(s) in %.2f s; "
                "set-up of %zu System(s) timed %zu times\n",
                workloadName(p.workload), minstr.size(),
                static_cast<unsigned long long>(first.jobs),
                secondsBetween(t0, Clock::now()), configs.size(),
                setups.size());
    std::printf("# sim_minstr_per_s per repetition:");
    for (double v : minstr)
        std::printf(" %.3f", v);
    std::printf("\n");
    rep.metric("sim_minstr_per_s", median(minstr), "Minstr/s");
    rep.metric("jobs_per_s", median(jobs), "1/s");
    rep.metric("sim_mticks_per_s", median(mticks), "Mticks/s");
    rep.metric("setup_s", median(setups), "s");
    rep.metric("peak_rss_mib", median(rss), "MiB");
    for (const auto &[name, value] : modelOutputs(p, first))
        rep.model(name, value);
    rep.print();
    return 0;
}

/** Nearest-rank percentile of @p v (sorted copy). */
double
percentile(std::vector<double> v, double q, size_t &beyond)
{
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    idx = std::clamp<size_t>(idx, 1, v.size()) - 1;
    beyond = v.size() - 1 - idx;
    return v[idx];
}

int
trace(const Args &a)
{
    const Params &p = a.params;
    Report rep;

    const RunOutput first = runWorkload(p);
    checkRepetition(p, first, nullptr, "warm-up repetition", rep);

    LayerTotals layers;
    std::vector<double> job_s;
    double pool_wall = 0.0;
    unsigned threads = 1;
    SampleTotals sample;
    std::vector<double> untraced_wall, traced_wall;
    const Clock::time_point t0 = Clock::now();
    while (traced_wall.empty() ||
           secondsBetween(t0, Clock::now()) < a.seconds) {
        const RunOutput u = runWorkload(p);
        checkRepetition(p, u, &first, "untraced repetition", rep);
        untraced_wall.push_back(u.wall_s);

        const TraceOutput t = traceWorkload(p);
        checkRepetition(p, t.run, &first, "traced repetition", rep);
        traced_wall.push_back(t.run.wall_s);
        layers.merge(t.layers);
        job_s.insert(job_s.end(), t.pool.job_s.begin(),
                     t.pool.job_s.end());
        pool_wall += t.pool.wall_s;
        threads = t.pool.threads;
        sample.warm_s += t.sample.warm_s;
        sample.warm_instructions += t.sample.warm_instructions;
        sample.ckpt_s += t.sample.ckpt_s;
        sample.ckpt_bytes += t.sample.ckpt_bytes;
        sample.checkpoints += t.sample.checkpoints;
        sample.replay_s += t.sample.replay_s;
        sample.windows += t.sample.windows;
    }
    const double reps = static_cast<double>(traced_wall.size());

    // sampled_mcf measured its sampling layer above; the other workloads
    // replay a representative job of theirs through it once.
    double sample_reps = reps;
    if (p.workload != Workload::SampledMcf) {
        std::string err;
        sample = sampleProbe(p, err);
        sample_reps = 1.0;
        rep.attempt(1);
        if (!err.empty()) {
            rep.fail(1);
            rep.error(err);
        }
    }
    const double trace_ns = traceProbeNsPerInstr(p);
    const double cache_ns = cacheProbeNsPerAccess(p);

    const double k = layers.spanScale();
    const double events_s = k * layers.events_ns;
    const double cpu_s = k * layers.cpu_ns;
    const double nm_s = k * layers.nm_ns;
    const double fm_s = k * layers.fm_ns;
    const double ptick_s = k * layers.ptick_ns;
    const double demand_s = k * layers.policy_ns;
    const double loop_self_s = k * layers.self_ns;
    const double untraced_loop_s = layers.untracedLoopSeconds();
    auto ratio = [](double num, double den) {
        return den == 0.0 ? 0.0 : num / den;
    };
    auto u64 = [](uint64_t v) { return static_cast<double>(v); };

    std::printf("# %s: %.0f traced repetition(s); %.1f ns per clock "
                "read, 1 in %.1f loop iterations sampled; shares of the "
                "untraced loop (%.3f s/rep):\n",
                workloadName(p.workload), reps, clockCostNs(),
                ratio(u64(layers.iterations), u64(layers.sampled)),
                untraced_loop_s / reps);
    const std::pair<const char *, double> shares[] = {
        {"events", events_s}, {"cpu", cpu_s},
        {"policy demand", demand_s}, {"dram nm", nm_s},
        {"dram fm", fm_s}, {"policy tick", ptick_s},
        {"loop self", loop_self_s}};
    for (const auto &[name, s] : shares) {
        std::printf("#   %-14s %6.1f%%\n", name,
                    100.0 * ratio(s, untraced_loop_s));
    }
    std::printf("#   (tracing added %.1f%% to the loop)\n",
                100.0 * ratio(layers.loop_wall_s - untraced_loop_s,
                              untraced_loop_s));

    size_t beyond = 0;
    const double p90 = percentile(job_s, 0.9, beyond);
    std::printf("# parallel: %zu job samples, %zu beyond job_p90_s\n",
                job_s.size(), beyond);
    double job_sum = 0.0;
    for (double s : job_s)
        job_sum += s;

    rep.metric("sim.setup_s", layers.setup_s / reps, "s");
    rep.metric("sim.loop_self_s", loop_self_s / reps, "s");
    rep.metric("sim.iters_per_tick",
               ratio(u64(layers.iterations), u64(layers.ticks)),
               "iter/tick");
    rep.metric("sim.trace_overhead_frac",
               median(traced_wall) / median(untraced_wall) - 1.0,
               "fraction");
    rep.metric("events.dispatch_s", events_s / reps, "s");
    rep.metric("events.executed", u64(layers.events_executed) / reps,
               "count");
    rep.metric("events.cancelled_frac",
               ratio(u64(layers.events_cancelled),
                     u64(layers.events_executed + layers.events_cancelled)),
               "fraction");
    rep.metric("cpu.self_s", cpu_s / reps, "s");
    rep.metric("cpu.mem_stall_frac",
               ratio(u64(layers.mem_stall_cycles), u64(layers.core_cycles)),
               "fraction");
    rep.metric("cpu.rob_full_frac",
               ratio(u64(layers.rob_full_cycles), u64(layers.core_cycles)),
               "fraction");
    rep.metric("cache.ns_per_access", cache_ns, "ns");
    rep.metric("cache.l1d_hit_rate",
               ratio(u64(layers.l1d_hits),
                     u64(layers.l1d_hits + layers.l1d_misses)),
               "fraction");
    rep.metric("cache.l2_hit_rate",
               ratio(u64(layers.l2_hits),
                     u64(layers.l2_hits + layers.l2_misses)),
               "fraction");
    rep.metric("cache.mshr_rejections", u64(layers.mshr_rejections) / reps,
               "count");
    rep.metric("cache.mshr_coalesced", u64(layers.mshr_coalesced) / reps,
               "count");
    rep.metric("trace.ns_per_instr", trace_ns, "ns");
    rep.metric("policy.demand_s", demand_s / reps, "s");
    rep.metric("policy.ns_per_call",
               ratio(layers.policy_ns, u64(layers.policy_timed_calls)), "ns");
    rep.metric("policy.calls", u64(layers.policy_calls) / reps, "count");
    rep.metric("policy.tick_s", ptick_s / reps, "s");
    rep.metric("policy.nm_access_rate",
               ratio(u64(layers.nm_serviced), u64(layers.demand_requests)),
               "fraction");
    rep.metric("policy.migrations_per_demand",
               ratio(u64(layers.migrations), u64(layers.demand_requests)),
               "ratio");
    rep.metric("dram.nm_tick_s", nm_s / reps, "s");
    rep.metric("dram.fm_tick_s", fm_s / reps, "s");
    rep.metric("dram.scans", u64(layers.nm_scans + layers.fm_scans) / reps,
               "count");
    rep.metric("dram.scan_yield",
               ratio(u64(layers.dram_served),
                     u64(layers.nm_scans + layers.fm_scans)),
               "ratio");
    rep.metric("dram.nm_row_hit_rate",
               ratio(u64(layers.nm_row_hits),
                     u64(layers.nm_row_hits + layers.nm_row_misses)),
               "fraction");
    rep.metric("dram.fm_row_hit_rate",
               ratio(u64(layers.fm_row_hits),
                     u64(layers.fm_row_hits + layers.fm_row_misses)),
               "fraction");
    rep.metric("dram.bg_promotions", u64(layers.bg_promotions) / reps,
               "count");
    rep.metric("parallel.jobs", u64(job_s.size()) / reps, "count");
    rep.metric("parallel.job_p50_s", median(job_s), "s");
    rep.metric("parallel.job_p90_s", p90, "s");
    rep.metric("parallel.pool_efficiency",
               ratio(job_sum, threads * pool_wall), "fraction");
    rep.metric("parallel.straggler_s",
               (pool_wall - job_sum / threads) / reps, "s");
    rep.metric("sample.warm_s", sample.warm_s / sample_reps, "s");
    rep.metric("sample.warm_ns_per_instr",
               ratio(sample.warm_s * 1e9, u64(sample.warm_instructions)),
               "ns");
    rep.metric("sample.ckpt_s", sample.ckpt_s / sample_reps, "s");
    rep.metric("sample.ckpt_bytes", u64(sample.ckpt_bytes) / sample_reps, "bytes");
    rep.metric("sample.replay_s", sample.replay_s / sample_reps, "s");
    rep.metric("sample.windows", u64(sample.windows) / sample_reps, "count");
    rep.print();
    return 0;
}

int
check(const Args &a)
{
    Report rep;
    std::string err;
    const uint64_t runs = runChecks(a.params, err);
    rep.attempt(runs);
    if (!err.empty()) {
        rep.fail(1);
        rep.error("oracle-checked run: " + err);
    }
    std::printf("# %s: %llu oracle-checked run(s) passed the shadow "
                "(and, for silcfm, differential) oracle\n",
                workloadName(a.params.workload),
                static_cast<unsigned long long>(runs));
    rep.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.mode == "measure")
        return measure(a);
    if (a.mode == "trace")
        return trace(a);
    return check(a);
}
