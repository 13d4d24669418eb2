/**
 * @file
 * The differential oracle: runs a ReferenceModel in lockstep with a
 * live SilcFmPolicy (as one of its policy::AccessObservers) and
 * cross-checks, after every demand access,
 *
 *  - where the access was serviced from (NM frame/way vs. FM home),
 *  - the post-access residence of the touched subblock (locate()),
 *  - every cumulative functional counter (swaps, restores, locks,
 *    unlocks, history fetches, bypasses, all-ways-locked events,
 *    NM/FM service counts) and the balancer's bypass flag,
 *
 * plus, every sweep_interval accesses and on demand, a deep sweep of
 * the complete metadata state: remap entries, residency and usage
 * vectors, lock bits, aging counters, raw LRU stamps, signature state,
 * per-set victim agreement, and the reference model's own redundant
 * index (selfCheck).
 *
 * The first divergence is latched with a description; with
 * Options::panic_on_divergence the checker panic()s instead, which is
 * the mode sim::System uses as a hard correctness gate (SILC_CHECK=1).
 * The latching mode keeps the process alive so the fuzzer can shrink a
 * failing trace.
 */

#ifndef SILC_CHECK_DIFFERENTIAL_HH
#define SILC_CHECK_DIFFERENTIAL_HH

#include <cstdint>
#include <string>

#include "check/reference_model.hh"
#include "core/silc_fm.hh"

namespace silc {
namespace check {

class DifferentialChecker final : public policy::AccessObserver
{
  public:
    struct Options
    {
        /** Accesses between deep full-state sweeps. */
        uint64_t sweep_interval = 1024;
        /** panic() on the first divergence instead of latching it. */
        bool panic_on_divergence = false;
    };

    /**
     * @param policy the live policy to shadow; the caller must also
     *               attach this checker via policy.addAccessObserver()
     */
    explicit DifferentialChecker(const core::SilcFmPolicy &policy);
    DifferentialChecker(const core::SilcFmPolicy &policy, Options opts);

    void onDemandResolved(Addr paddr, bool is_write, CoreId core,
                          Addr pc,
                          const policy::Location &serviced) override;
    /** Data movement is the shadow tier's concern: the reference model
     *  is driven by demand resolutions alone. */
    void onBlockCopied(const policy::Location &,
                       const policy::Location &) override
    {
    }
    void onBlocksSwapped(const policy::Location &,
                         const policy::Location &) override
    {
    }

    /** A divergence has been observed (first one is kept). */
    bool failed() const { return failed_; }
    /** Description of the first divergence (empty while clean). */
    const std::string &failure() const { return failure_; }

    uint64_t accessesChecked() const { return checked_; }
    uint64_t sweepsRun() const { return sweeps_; }

    const ReferenceModel &reference() const { return ref_; }

    /**
     * Deep compare of the complete metadata state right now.  Returns
     * false (and latches the divergence) on mismatch.  Also run
     * automatically every Options::sweep_interval accesses.
     */
    bool verifyFullState();

  private:
    void fail(const std::string &why);
    bool compareFrame(uint64_t frame);
    bool compareCounters();

    const core::SilcFmPolicy &policy_;
    Options opts_;
    ReferenceModel ref_;

    bool failed_ = false;
    std::string failure_;
    uint64_t checked_ = 0;
    uint64_t sweeps_ = 0;
};

} // namespace check
} // namespace silc

#endif // SILC_CHECK_DIFFERENTIAL_HH
