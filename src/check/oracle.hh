/**
 * @file
 * Attaching the two-tier oracle to a live policy: the scheme-agnostic
 * shadow-data invariant checker (check/shadow.hh) for every scheme,
 * plus the metadata-lockstep differential checker
 * (check/differential.hh) for schemes with a reference model.  The one
 * place sim::System (SILC_CHECK=1) and the fuzz campaigns wire them.
 */

#ifndef SILC_CHECK_ORACLE_HH
#define SILC_CHECK_ORACLE_HH

#include <memory>

#include "check/differential.hh"
#include "check/shadow.hh"
#include "policy/policy.hh"

namespace silc {
namespace check {

/** The checkers attached to one policy; they must outlive its use. */
struct Oracle
{
    /** Tier 2: metadata lockstep (null without a reference model). */
    std::unique_ptr<DifferentialChecker> differential;
    /** Tier 1: shadow-data invariants. */
    std::unique_ptr<ShadowChecker> shadow;
};

/**
 * Build both tiers for @p policy and attach them as its observers.
 * @p reference_model is the scheme's has_reference_oracle trait (the
 * policy is then a core::SilcFmPolicy).  The differential tier is
 * attached first, so in panic mode a demand both tiers reject reports
 * the reference model's divergence.
 */
Oracle attachOracle(policy::FlatMemoryPolicy &policy, bool reference_model,
                    bool panic_on_divergence);

} // namespace check
} // namespace silc

#endif // SILC_CHECK_ORACLE_HH
