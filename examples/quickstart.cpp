/**
 * @file
 * Quickstart: build a system, run one workload under SILC-FM, and print
 * the headline metrics and the per-component statistics.
 *
 *     SILC_WORKLOAD=mcf SILC_SCHEME=silcfm SILC_CORES=8 ./example_quickstart
 *
 * Scale comes from the SILC_* knobs that README.md lists.
 */

#include <cstdio>
#include <sstream>

#include "common/knobs.hh"
#include "common/logging.hh"
#include "policy/registry.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/profiles.hh"

using namespace silc;

int
main(int argc, char **argv)
{
    if (argc > 1)
        fatal("unexpected argument '%s': set SILC_* knobs instead", argv[1]);
    const sim::ExperimentOptions opts = sim::ExperimentOptions::fromEnv();
    const std::string workload = knobs::text("SILC_WORKLOAD", "mcf");
    // Aliases (cameo, silc) resolve to their canonical scheme here.
    const std::string scheme =
        policy::SchemeRegistry::instance().resolve(opts.scheme).name;

    std::printf("== SILC-FM quickstart ==\n");
    std::printf("workload   : %s (%s MPKI class)\n", workload.c_str(),
                trace::mpkiClassName(
                    trace::findProfile(workload).mpki_class));
    std::printf("policy     : %s\n", scheme.c_str());
    std::printf("cores      : %u\n", opts.cores);
    std::printf("NM / FM    : %llu MiB / %llu MiB\n",
                static_cast<unsigned long long>(opts.nm_bytes >> 20),
                static_cast<unsigned long long>(opts.fm_bytes >> 20));

    const Tick baseline =
        sim::System(sim::makeConfig(
                        workload,
                        policy::SchemeRegistry::instance().baselineName(),
                        opts))
            .run()
            .ticks;
    sim::System system(sim::makeConfig(workload, scheme, opts));
    const sim::SimResult r = system.run();
    const double speedup =
        static_cast<double>(baseline) / static_cast<double>(r.ticks);

    std::printf("\n-- results --\n");
    std::printf("execution time : %llu ticks (%.3f ms at 3.2 GHz)\n",
                static_cast<unsigned long long>(r.ticks),
                r.seconds() * 1e3);
    std::printf("speedup vs no-NM baseline : %.3f\n", speedup);
    std::printf("IPC per core   : %.3f\n", r.ipc);
    std::printf("LLC MPKI       : %.1f\n", r.mpki);
    std::printf("access rate    : %.3f (fraction of LLC misses "
                "serviced by NM)\n",
                r.access_rate);
    std::printf("avg miss lat   : %.0f ticks\n", r.avg_miss_latency);
    std::printf("NM traffic     : %.1f MiB (%.1f MiB demand)\n",
                r.nm_total_bytes / 1048576.0,
                r.nm_demand_bytes / 1048576.0);
    std::printf("FM traffic     : %.1f MiB (%.1f MiB demand)\n",
                r.fm_total_bytes / 1048576.0,
                r.fm_demand_bytes / 1048576.0);
    std::printf("migration      : %.1f MiB\n",
                r.migration_bytes / 1048576.0);
    std::printf("energy         : %.2f mJ (EDP %.3e Js)\n",
                r.energy_total_j * 1e3, r.edp);

    std::printf("\n-- component statistics --\n");
    std::ostringstream os;
    system.dumpStats(os);
    std::fputs(os.str().c_str(), stdout);
    return 0;
}
