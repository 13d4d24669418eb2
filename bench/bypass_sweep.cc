/**
 * @file
 * Section III-E — bandwidth balancing: sweep the bypass target access
 * rate on a bandwidth-bound workload and show that the optimum sits
 * near 0.8, not 1.0, because the system's NM:FM bandwidth ratio is 4:1
 * (servicing 1/(N+1) of requests from FM uses the idle FM bandwidth).
 */

#include <cstdio>
#include <vector>

#include "sim/parallel.hh"
#include "sim/result_writer.hh"

using namespace silc;
using namespace silc::sim;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    ParallelRunner runner(opts);
    runner.setJsonPath(args.json());
    const std::string workload = "milc";   // the paper's bypass example

    std::printf("=== Bypass target sweep on %s "
                "(Section III-E; optimum should be near 0.8) ===\n\n",
                workload.c_str());
    std::printf("%8s %10s %12s %12s %12s\n", "target", "speedup",
                "accessrate", "nm demand%", "fm util");

    struct Point
    {
        double target;
        bool enabled;
    };
    const std::vector<Point> points = {
        {0.50, true}, {0.60, true}, {0.70, true},  {0.80, true},
        {0.90, true}, {0.99, true}, {1.00, false},   // disabled = "1.0"
    };

    runner.baseline(workload);
    std::vector<ParallelRunner::Job> jobs;
    for (const Point &pt : points) {
        SystemConfig cfg = makeConfig(workload, "silcfm", opts);
        cfg.silc.enable_bypass = pt.enabled;
        cfg.silc.bypass_target = pt.target;
        jobs.push_back(runner.submitConfig(cfg));
    }

    double best_speedup = 0.0;
    double best_target = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
        const Point &pt = points[i];
        SimResult r = jobs[i].get();
        const double s = runner.speedup(r);
        if (s > best_speedup) {
            best_speedup = s;
            best_target = pt.target;
        }
        std::printf("%8.2f %10.3f %12.3f %12.3f %12.3f\n", pt.target, s,
                    r.access_rate, r.nmDemandFraction(),
                    r.fm_bus_utilization);
        std::fflush(stdout);
    }

    std::printf("\nbest target: %.2f (speedup %.3f)\n", best_target,
                best_speedup);
    runner.printFooter();
    return 0;
}
