#include "common/stats.hh"

#include <iomanip>

#include "common/logging.hh"

namespace aos {

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &[name, stat] : _scalars) {
        os << _name << '.' << name << ' ' << std::setprecision(12)
           << stat.value() << '\n';
    }
}

double
geomean(const std::vector<double> &vals)
{
    // The geometric mean is only defined over positive reals: log(0)
    // is -inf (the old code silently returned 0.0 for the whole set)
    // and log of a negative value is NaN. Skip such inputs loudly
    // rather than poisoning a figure-wide summary number.
    double logsum = 0.0;
    size_t used = 0;
    for (const double v : vals) {
        if (!std::isfinite(v) || v <= 0.0) {
            warn("geomean: skipping non-positive/non-finite value %g", v);
            continue;
        }
        logsum += std::log(v);
        ++used;
    }
    if (!used)
        return 0.0;
    return std::exp(logsum / static_cast<double>(used));
}

} // namespace aos
