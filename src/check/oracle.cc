#include "check/oracle.hh"

namespace silc {
namespace check {

Oracle
attachOracle(policy::FlatMemoryPolicy &policy, bool reference_model,
             bool panic_on_divergence)
{
    Oracle o;
    if (reference_model) {
        DifferentialChecker::Options dopts;
        dopts.panic_on_divergence = panic_on_divergence;
        o.differential = std::make_unique<DifferentialChecker>(
            static_cast<const core::SilcFmPolicy &>(policy), dopts);
        policy.addAccessObserver(o.differential.get());
    }
    ShadowChecker::Options sopts;
    sopts.panic_on_divergence = panic_on_divergence;
    o.shadow = std::make_unique<ShadowChecker>(policy, sopts);
    policy.addAccessObserver(o.shadow.get());
    return o;
}

} // namespace check
} // namespace silc
