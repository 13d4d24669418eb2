#include "sim/system.hh"

#include <cinttypes>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "policy/registry.hh"
#include "trace/file_trace.hh"
#include "trace/profiles.hh"
#include "trace/tenants.hh"

namespace silc {
namespace sim {

SystemConfig
SystemConfig::defaults()
{
    SystemConfig cfg;

    cfg.l1d.name = "l1d";
    cfg.l1d.size_bytes = 16 * 1024;
    cfg.l1d.associativity = 4;
    cfg.l1d.latency_cycles = 4;

    // Table II uses an 8MB shared L2 against multi-GB footprints
    // (ratio >= 100x); this scaled system keeps the footprint:LLC ratio
    // by using 512KB against 16-64MB footprints (see DESIGN.md).
    cfg.l2.name = "l2";
    cfg.l2.size_bytes = 256 * 1024;
    cfg.l2.associativity = 16;
    cfg.l2.latency_cycles = 11;

    cfg.nm_timing = dram::hbm2Params();
    cfg.fm_timing = dram::ddr3Params();
    // Bandwidth scaling: the paper runs 16 cores against 128-bit x 8
    // HBM channels and 64-bit x 4 DDR3 channels (4:1 NM:FM bandwidth)
    // and is explicitly bandwidth-bound.  This scaled system (8 cores,
    // 1/4 capacities) keeps the 4:1 ratio and the saturation regime by
    // using 64-bit HBM pseudo-channels and 2 DDR3 channels.
    cfg.nm_timing.bus_width_bits = 64;
    cfg.fm_timing.channels = 2;
    return cfg;
}

void
SystemConfig::validate() const
{
    if (cores == 0)
        fatal("system: at least one core required");
    const policy::SchemeTraits &traits =
        policy::SchemeRegistry::instance().resolve(scheme).traits;
    if (traits.needs_nm && nm_bytes == 0)
        fatal("system: scheme '%s' requires near memory",
              scheme.c_str());
    if (traits.fm_multiple_of_nm) {
        if (nm_bytes == 0 || fm_bytes % nm_bytes != 0)
            fatal("system: FM capacity must be a multiple of NM "
                  "capacity");
    }
    if (instructions_per_core == 0)
        fatal("system: zero instruction budget");
    if (sim_threads != 1)
        fatal("system: sim_threads must be 1 (the simulation loop is "
              "sequential; parallelism is per job and per sampling "
              "window)");
    if (tenants == 0)
        fatal("system: at least one tenant required");
    if (tenant_min_active == 0 || tenant_min_active > tenants)
        fatal("system: tenant_min_active %u out of range [1, %u]",
              tenant_min_active, tenants);
}

namespace {

/**
 * Functional-warming phase stagger (see DESIGN.md "known biases"):
 * core c sits out the cycles [c*B, (c+1)*B) of each warming segment —
 * a rolling blackout, one core at a time.  Pure lockstep keeps every
 * core's stream phase-aligned in the shared L2; the blackout makes
 * each core fall behind by B cycles at a different point of the
 * segment, so relative stream positions drift apart and re-converge
 * the way detailed-execution stalls move them.  Unlike a start offset,
 * every core loses exactly B cycles and all finish together, so the
 * segment tail has no reduced-contention window that would skew the
 * checkpointed L2 towards the last cores running.  Prime, so the
 * offset (B * width instructions) does not alias with power-of-two
 * set counts; costs B extra warming cycles per segment total.
 */
constexpr Tick kWarmBlackoutCycles = 3067;

} // namespace

// ---- MemoryHierarchy ---------------------------------------------------

MemoryHierarchy::MemoryHierarchy(const SystemConfig &cfg,
                                 Translation &translation,
                                 policy::FlatMemoryPolicy &policy)
    : cfg_(cfg),
      translation_(translation),
      policy_(policy),
      l2_(cfg.l2),
      mshr_(cfg.mshr_entries, cfg.mshr_per_core)
{
    l1d_.reserve(cfg.cores);
    for (uint32_t c = 0; c < cfg.cores; ++c) {
        cache::CacheParams pd = cfg.l1d;
        pd.name = "l1d" + std::to_string(c);
        l1d_.emplace_back(pd);
    }
}

void
MemoryHierarchy::install(CoreId core, Addr paddr, bool is_write,
                         bool from_memory, Tick now)
{
    // Victims cascade downwards: L2's dirty victim leaves the
    // hierarchy, L1's dirty victim lands in L2 (whose own dirty victim
    // then leaves).
    if (from_memory) {
        const cache::AccessOutcome o2 = l2_.fill(paddr, false);
        if (o2.writeback)
            policy_.writeback(o2.writeback_addr, core, now);
    }
    cache::Cache &l1 = l1d_[core];
    const cache::AccessOutcome o1 =
        from_memory ? l1.fill(paddr, is_write) : l1.access(paddr, is_write);
    if (o1.writeback) {
        const cache::AccessOutcome ol2 = l2_.fill(o1.writeback_addr, true);
        if (ol2.writeback)
            policy_.writeback(ol2.writeback_addr, core, now);
    }
}

bool
MemoryHierarchy::access(CoreId core, Addr vaddr, Addr pc, bool is_write,
                        std::function<void(Tick)> done, Tick now)
{
    const Addr paddr = translation_.translate(core, vaddr);
    cache::Cache &l1 = l1d_[core];

    // L1 hit path.
    if (l1.accessIfHit(paddr, is_write)) {
        if (done)
            done(now + cfg_.l1d.latency_cycles);
        return true;
    }

    // L2 hit path: a hit updates L2 state immediately; a miss leaves the
    // caches untouched so MSHR rejection below has nothing to undo.
    const bool l2_hit = l2_.accessIfHit(paddr, false);
    const Addr block = subblockAddr(paddr);

    if (!l2_hit) {
        if (warming_) {
            // Functional warming: the policy's metadata state machine
            // runs in full (it is in functional mode, so nothing
            // reaches the DRAM devices and the demand completes
            // synchronously), the caches fill immediately, and the MSHR
            // file is bypassed entirely.  Skipping MSHR coalescing is
            // the standard functional-warming approximation: with no
            // outstanding misses every access resolves against
            // up-to-date cache and metadata state.
            ++llc_misses_total_;
            policy_.demandAccess(block, is_write, core, pc, nullptr,
                                 now);
            install(core, paddr, is_write, true, now);
            l1.noteMiss();
            l2_.noteMiss();
            if (done)
                done(now + 1);
            return true;
        }

        // Demand miss at the LLC: needs an MSHR.
        auto fill_cb = [this, core, paddr, is_write,
                        done = std::move(done)](Tick t) mutable {
            install(core, paddr, is_write, true, t);
            if (done)
                done(t + cfg_.fill_latency);
        };

        const auto alloc = mshr_.allocate(block, core, std::move(fill_cb));
        if (alloc == cache::MshrAllocation::NoCapacity)
            return false;

        ++llc_misses_total_;

        if (alloc == cache::MshrAllocation::Primary) {
            policy_.demandAccess(
                block, is_write, core, pc,
                [this, block, now](Tick t) {
                    miss_latency_sum_ += static_cast<double>(t - now);
                    ++misses_completed_;
                    mshr_.complete(block, t);
                },
                now);
        }
        // Record the misses in statistics; the functional install is
        // deferred to the fill callback.
        l1.noteMiss();
        l2_.noteMiss();
        return true;
    }

    // L2 hit (already counted above): fill L1.
    install(core, paddr, is_write, false, now);
    if (done)
        done(now + cfg_.l1d.latency_cycles + cfg_.l2.latency_cycles);
    return true;
}

void
MemoryHierarchy::snapshot(BlobWriter &w) const
{
    w.putU32(static_cast<uint32_t>(l1d_.size()));
    for (const cache::Cache &l1 : l1d_)
        l1.snapshot(w);
    l2_.snapshot(w);
    w.putU64(llc_misses_total_);
    w.putF64(miss_latency_sum_);
    w.putU64(misses_completed_);
}

void
MemoryHierarchy::restore(BlobReader &r)
{
    const uint32_t cores = r.getU32();
    if (cores != l1d_.size())
        fatal("hierarchy checkpoint core count %u != configured %zu",
              cores, l1d_.size());
    for (cache::Cache &l1 : l1d_)
        l1.restore(r);
    l2_.restore(r);
    llc_misses_total_ = r.getU64();
    miss_latency_sum_ = r.getF64();
    misses_completed_ = r.getU64();
}

// ---- System ------------------------------------------------------------

System::System(SystemConfig cfg)
    : cfg_(std::move(cfg))
{
    cfg_.validate();

    const policy::SchemeInfo &scheme =
        policy::SchemeRegistry::instance().resolve(cfg_.scheme);
    if (scheme.traits.needs_nm) {
        nm_ = std::make_unique<dram::DramSystem>(cfg_.nm_timing,
                                                 cfg_.nm_bytes, events_);
    }
    fm_ = std::make_unique<dram::DramSystem>(cfg_.fm_timing,
                                             cfg_.fm_bytes, events_);

    policy::PolicyEnv env;
    env.nm = nm_.get();
    env.fm = fm_.get();
    env.events = &events_;
    policy_ = scheme.factory(cfg_, env);

    translation_ = std::make_unique<Translation>(
        policy_->flatSpaceBytes(), cfg_.seed);

    hierarchy_ =
        std::make_unique<MemoryHierarchy>(cfg_, *translation_, *policy_);

    cpu::CoreParams core_params = cfg_.core_params;
    core_params.instruction_budget = cfg_.instructions_per_core;

    for (uint32_t c = 0; c < cfg_.cores; ++c) {
        if (!cfg_.trace_file.empty()) {
            traces_.push_back(std::make_unique<trace::FileTraceReader>(
                cfg_.trace_file));
        } else if (cfg_.tenants > 1) {
            const trace::WorkloadProfile &profile =
                trace::findProfile(cfg_.workload);
            trace::TenantMixParams tp;
            tp.tenants = cfg_.tenants;
            tp.min_active = cfg_.tenant_min_active;
            tp.zipf_alpha = cfg_.tenant_zipf_alpha;
            tp.churn_interval = cfg_.tenant_churn_interval;
            traces_.push_back(std::make_unique<trace::TenantMixSource>(
                tp, profile, cfg_.seed * 7919 + c * 104729 + 13));
        } else {
            const trace::WorkloadProfile &profile =
                trace::findProfile(cfg_.workload);
            traces_.push_back(
                std::make_unique<trace::SyntheticGenerator>(
                    profile, cfg_.seed * 7919 + c * 104729 + 13));
        }
        cores_.push_back(std::make_unique<cpu::Core>(
            c, core_params, *traces_.back(), *hierarchy_));
    }

    if (cfg_.telemetry.enabled)
        attachTelemetry();

    if (cfg_.check) {
        oracle_ = check::attachOracle(
            *policy_, scheme.traits.has_reference_oracle, true);
    }
}

void
System::attachTelemetry()
{
    recorder_ = std::make_unique<telemetry::Recorder>(
        cfg_.telemetry, cfg_.workload + "/" + cfg_.scheme);
    telemetry::Sampler &s = recorder_->sampler();

    policy_->registerTelemetry(s);
    if (nm_)
        nm_->registerTelemetry(s, "nm");
    fm_->registerTelemetry(s, "fm");

    // Cores aggregate: the figures of interest (warm-up, phase shifts)
    // show up identically on every core of a rate-mode run, so one
    // averaged series keeps the probe list readable.
    const double inv_cores = 1.0 / static_cast<double>(cfg_.cores);
    s.addRate("cpu.ipc", [this, inv_cores] {
        double retired = 0.0;
        for (const auto &core : cores_)
            retired += static_cast<double>(core->retired());
        return retired * inv_cores;
    });
    s.addGauge("cpu.robOccupancy", [this, inv_cores] {
        double occ = 0.0;
        for (const auto &core : cores_)
            occ += static_cast<double>(core->robOccupancy());
        return occ * inv_cores;
    });
    s.addRate("cpu.stallFraction", [this, inv_cores] {
        double stalls = 0.0;
        for (const auto &core : cores_)
            stalls += static_cast<double>(core->stallCycles());
        return stalls * inv_cores;
    });

    recorder_->start(events_);
}

System::~System() = default;

SimResult
System::run()
{
    return collectResult(runToBudget());
}

bool
System::runToBudget()
{
    // Resumable: cycle_ is a member, so after extending the per-core
    // budgets a second call re-enters at the pause cycle.  Re-running
    // that cycle is idempotent — its events already fired (runDue pops
    // nothing), the ROB is empty so the retire loop is a no-op, and the
    // device ticks see unchanged queues — so dispatch resumes exactly
    // where the previous budget ended.
    bool all_done = false;
    warm_seg_start_ = cycle_;
    while (cycle_ < cfg_.max_ticks) {
        const Tick cycle = cycle_;
        events_.runDue(cycle);
        all_done = true;
        if (functional_) {
            // Functional warming: same access stream as tick() (width
            // instructions per core per cycle, cores in order), minus
            // the ROB machinery — see Core::functionalTick.  The
            // rolling per-core blackout (see kWarmBlackoutCycles above)
            // breaks the pure lockstep interleave, which keeps every
            // core's stream phase-aligned in the shared L2 (detailed
            // execution lets cores drift apart behind stalls) and
            // measurably overestimates MPKI on wide contended fixtures
            // — DESIGN.md "known biases".  Core `blackout` sits out
            // this cycle of the segment.
            const Tick blackout =
                (cycle - warm_seg_start_) / kWarmBlackoutCycles;
            for (size_t c = 0; c < cores_.size(); ++c) {
                cpu::Core &core = *cores_[c];
                if (core.done())
                    continue;
                if (blackout == static_cast<Tick>(c)) {
                    all_done = false;
                    continue;
                }
                core.functionalTick(cycle);
                all_done &= core.done();
            }
        } else {
            for (auto &core : cores_) {
                core->tick(cycle);
                all_done &= core->done();
            }
        }
        if (nm_)
            nm_->tick(cycle);
        fm_->tick(cycle);
        policy_->tick(cycle);
        if (all_done)
            break;
        cycle_ = cycle + 1;

        // Fast-forward: when every live core is in the counters-only
        // stall state, nothing can happen before the earliest wakeup
        // among the cores' stall horizons, pending events (completions,
        // telemetry epochs), the DRAM scan registers and the policy's
        // epoch hook — each skipped cycle would have been a strict
        // no-op apart from the stall counters, which are bulk-added.
        Tick wake = kTickNever;
        bool skippable = true;
        for (const auto &core : cores_) {
            if (core->done())
                continue;
            const Tick su = core->stallUntil();
            if (su <= cycle_) {
                skippable = false;
                break;
            }
            wake = std::min(wake, su);
        }
        if (!skippable)
            continue;
        wake = std::min(wake, events_.nextEventTick());
        if (nm_)
            wake = std::min(wake, nm_->nextWakeTick());
        wake = std::min(wake, fm_->nextWakeTick());
        wake = std::min(wake, policy_->nextWakeTick());
        wake = std::min(wake, cfg_.max_ticks);
        if (wake <= cycle_)
            continue;
        const uint64_t skipped = wake - cycle_;
        for (auto &core : cores_) {
            if (!core->done())
                core->addStalledCycles(skipped);
        }
        cycle_ = wake;
    }

    return all_done;
}

void
System::setFunctionalMode(bool on)
{
    policy_->setFunctionalMode(on);
    hierarchy_->setWarming(on);
    functional_ = on;
}

uint64_t
System::accessesChecked() const
{
    uint64_t n = 0;
    if (oracle_.shadow)
        n += oracle_.shadow->accessesChecked();
    if (oracle_.differential)
        n += oracle_.differential->accessesChecked();
    return n;
}

void
System::setPerCoreBudget(uint64_t instructions)
{
    cfg_.instructions_per_core = instructions;
    for (auto &core : cores_)
        core->setInstructionBudget(instructions);
}

void
System::snapshotState(BlobWriter &w) const
{
    // Only legal at a quiesced functional-mode pause point: nothing in
    // flight, so timing state need not (and must not) be captured.
    silc_assert(hierarchy_->mshrs().size() == 0);
    silc_assert(fm_->idle());
    silc_assert(!nm_ || nm_->idle());

    w.section("SILC");
    // Version 2: NM frame metadata is serialized sparsely (materialized
    // frames only); version-1 blobs carried the dense per-frame dump.
    w.putU32(2); // checkpoint format version
    w.putStr(policy_->name());
    w.putU32(cfg_.cores);

    w.section("TRNS");
    translation_->snapshot(w);

    w.section("HIER");
    hierarchy_->snapshot(w);

    w.section("POLI");
    policy_->snapshotState(w);

    for (const auto &t : traces_) {
        w.section("TRCE");
        t->snapshot(w);
    }
}

void
System::restoreState(BlobReader &r)
{
    r.expect("SILC");
    const uint32_t version = r.getU32();
    if (version != 2)
        fatal("checkpoint format version %u unsupported (expected 2)",
              version);
    const std::string pname = r.getStr();
    if (pname != policy_->name())
        fatal("checkpoint policy '%s' does not match system policy '%s'",
              pname.c_str(), policy_->name());
    const uint32_t cores = r.getU32();
    if (cores != cfg_.cores)
        fatal("checkpoint core count %u does not match config (%u)",
              cores, cfg_.cores);

    r.expect("TRNS");
    translation_->restore(r);

    r.expect("HIER");
    hierarchy_->restore(r);

    r.expect("POLI");
    policy_->restoreState(r);

    for (auto &t : traces_) {
        r.expect("TRCE");
        t->restore(r);
    }
    r.done();

    // The data layout reverted under the shadow oracle's feet; rebuild
    // its map from the restored locate() state.
    if (oracle_.shadow)
        oracle_.shadow->reseed();
}

SimResult
System::collectResult(bool all_done)
{
    SimResult r;
    r.scheme = cfg_.scheme;
    r.workload = cfg_.workload;
    r.cores = cfg_.cores;
    r.instructions =
        cfg_.instructions_per_core * static_cast<uint64_t>(cfg_.cores);
    r.hit_tick_limit = !all_done;

    Tick finish = 0;
    for (auto &core : cores_)
        finish = std::max(finish, core->finishTick());
    r.ticks = all_done ? finish : cfg_.max_ticks;
    if (r.ticks == 0)
        r.ticks = 1;

    if (!all_done) {
        warn("run %s/%s hit the tick limit (%" PRIu64 ")",
             r.scheme.c_str(), r.workload.c_str(), cfg_.max_ticks);
    }

    r.ipc = static_cast<double>(r.instructions) /
        static_cast<double>(r.ticks) / cfg_.cores;
    r.llc_misses = hierarchy_->llcMisses();
    r.mpki = 1000.0 * static_cast<double>(r.llc_misses) /
        static_cast<double>(r.instructions);
    r.footprint_pages = translation_->pagesAllocated();
    r.avg_miss_latency = hierarchy_->avgMissLatency();
    r.access_rate = policy_->accessRate();

    const auto demand = static_cast<size_t>(dram::TrafficClass::Demand);
    const auto migr = static_cast<size_t>(dram::TrafficClass::Migration);
    const auto meta = static_cast<size_t>(dram::TrafficClass::Metadata);
    const auto &ft = fm_->traffic();
    r.fm_demand_bytes = ft.read[demand] + ft.write[demand];
    r.fm_total_bytes = ft.total();
    r.migration_bytes = ft.read[migr] + ft.write[migr];
    r.metadata_bytes = ft.read[meta] + ft.write[meta];
    if (nm_) {
        const auto &nt = nm_->traffic();
        r.nm_demand_bytes = nt.read[demand] + nt.write[demand];
        r.nm_total_bytes = nt.total();
        r.migration_bytes += nt.read[migr] + nt.write[migr];
        r.metadata_bytes += nt.read[meta] + nt.write[meta];
    }

    const uint64_t fm_rb = fm_->rowHits() + fm_->rowMisses();
    r.fm_row_hit_rate = fm_rb == 0
        ? 0.0
        : static_cast<double>(fm_->rowHits()) / fm_rb;
    r.fm_bus_utilization = fm_->busUtilization(r.ticks);
    r.fm_avg_read_queue_ticks = fm_->avgReadQueueDelay();
    if (nm_) {
        const uint64_t nm_rb = nm_->rowHits() + nm_->rowMisses();
        r.nm_row_hit_rate = nm_rb == 0
            ? 0.0
            : static_cast<double>(nm_->rowHits()) / nm_rb;
        r.nm_bus_utilization = nm_->busUtilization(r.ticks);
        r.nm_avg_read_queue_ticks = nm_->avgReadQueueDelay();
    }

    const double cpu_freq_hz = 3.2e9;
    r.energy_fm_j = fm_->energyJoules(r.ticks, cpu_freq_hz);
    r.energy_nm_j =
        nm_ ? nm_->energyJoules(r.ticks, cpu_freq_hz) : 0.0;
    r.energy_total_j = r.energy_fm_j + r.energy_nm_j;
    r.edp = r.energy_total_j * r.seconds(cpu_freq_hz);

    if (recorder_) {
        recorder_->finish(r.ticks);
        r.telemetry = recorder_->series();
    }

    // One last deep sweep of the complete oracle state; any violation
    // panics (both checkers run in panic_on_divergence mode).
    if (oracle_.shadow)
        oracle_.shadow->verifyFullState();
    if (oracle_.differential)
        oracle_.differential->verifyFullState();
    return r;
}


void
System::dumpStats(std::ostream &os) const
{
    // gem5 stats.txt layout: "name value # desc".  Counters print as
    // exact integers; averages through a default-formatted stream.
    const std::string prefix = std::string(policy_->name()) + ".";
    auto line = [&](const std::string &name, const std::string &value,
                    const char *desc) {
        os << std::left << std::setw(44) << (prefix + name) << " "
           << std::setw(16) << value << " # " << desc << "\n";
    };
    auto add_scalar = [&](const std::string &name, uint64_t value,
                          const char *desc) {
        line(name, std::to_string(value), desc);
    };
    auto add_avg = [&](const std::string &name, double value,
                       const char *desc) {
        std::ostringstream v;
        v << value;
        line(name, v.str(), desc);
    };

    for (uint32_t c = 0; c < cfg_.cores; ++c) {
        const std::string pfx = "core" + std::to_string(c) + ".";
        const cpu::Core &core = *cores_[c];
        add_scalar(pfx + "retired", core.retired(),
                   "instructions retired");
        add_scalar(pfx + "loads", core.loads(), "loads issued");
        add_scalar(pfx + "stores", core.stores(), "stores issued");
        add_scalar(pfx + "robFullCycles", core.robFullCycles(),
                   "dispatch cycles blocked on a full ROB");
        add_scalar(pfx + "memStallCycles", core.memStallCycles(),
                   "dispatch cycles blocked on memory backpressure");
        add_scalar(pfx + "finishTick", core.finishTick(),
                   "tick the budget retired");
        const cache::Cache &l1 = hierarchy_->l1d(c);
        add_scalar(pfx + "l1d.hits", l1.hits(), "L1D hits");
        add_scalar(pfx + "l1d.misses", l1.misses(), "L1D misses");
    }

    add_scalar("l2.hits", hierarchy_->l2().hits(), "shared L2 hits");
    add_scalar("l2.misses", hierarchy_->l2().misses(),
               "shared L2 misses");
    add_scalar("l2.writebacks", hierarchy_->l2().writebacks(),
               "dirty L2 evictions");
    add_scalar("mshr.coalesced", hierarchy_->mshrs().coalesced(),
               "misses merged into outstanding entries");
    add_scalar("mshr.rejections", hierarchy_->mshrs().rejections(),
               "allocations rejected (backpressure)");
    add_scalar("llc.misses", hierarchy_->llcMisses(),
               "demand misses past the LLC");
    add_avg("llc.avgMissLatency", hierarchy_->avgMissLatency(),
            "mean ticks from miss to fill");

    auto add_dram = [&](const char *pfx, const dram::DramSystem &dev) {
        const std::string p(pfx);
        add_scalar(p + ".reads", dev.readsServed(), "reads serviced");
        add_scalar(p + ".writes", dev.writesServed(),
                   "writes serviced");
        add_scalar(p + ".rowHits", dev.rowHits(), "row buffer hits");
        add_scalar(p + ".rowMisses", dev.rowMisses(),
                   "row buffer misses");
        add_scalar(p + ".activations", dev.activations(),
                   "row activations");
        add_scalar(p + ".bytes", dev.traffic().total(),
                   "total bytes transferred");
        add_scalar(p + ".demandBytes", dev.demandBytes(),
                   "demand-class bytes");
        add_avg(p + ".avgReadQueueDelay", dev.avgReadQueueDelay(),
                "mean read queueing delay (ticks)");
    };
    if (nm_)
        add_dram("nm", *nm_);
    add_dram("fm", *fm_);

    add_scalar("policy.nmServiced", policy_->nmServiced(),
               "demand requests serviced by NM");
    add_scalar("policy.fmServiced", policy_->fmServiced(),
               "demand requests serviced by FM");
    add_scalar("policy.migrationOps", policy_->migrationOps(),
               "subblock migration operations");
    add_avg("policy.accessRate", policy_->accessRate(),
            "Equation 1 access rate");
}

} // namespace sim
} // namespace silc
