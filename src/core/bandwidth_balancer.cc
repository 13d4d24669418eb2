#include "core/bandwidth_balancer.hh"

#include "common/logging.hh"

namespace silc {
namespace core {

BandwidthBalancer::BandwidthBalancer(bool enabled, double target_rate,
                                     uint64_t window)
    : enabled_(enabled), target_rate_(target_rate), window_(window)
{
    if (window_ == 0)
        fatal("bandwidth balancer window must be positive");
    if (target_rate_ <= 0.0 || target_rate_ > 1.0)
        fatal("bandwidth balancer target rate must be in (0, 1]");
}

void
BandwidthBalancer::record(bool serviced_from_nm)
{
    if (!enabled_)
        return;

    ++in_window_;
    if (serviced_from_nm)
        ++nm_in_window_;

    if (in_window_ >= window_) {
        last_rate_ = static_cast<double>(nm_in_window_) /
            static_cast<double>(in_window_);
        // Bypass while the measured rate exceeds the target; re-enable
        // swapping as soon as the rate drops back (Section III-E).
        bypassing_ = last_rate_ > target_rate_;
        ++windows_;
        in_window_ = 0;
        nm_in_window_ = 0;
    }
}

} // namespace core
} // namespace silc
