/**
 * @file
 * Lightweight statistics package modeled after gem5's Stats.
 *
 * Stats are plain value objects grouped into a StatSet for dumping.
 * Scalar wraps a counter; Distribution tracks min/max/mean/stdev and a
 * histogram; Ratio is a named formula over two scalars evaluated at
 * dump time.
 */

#ifndef AOS_COMMON_STATS_HH
#define AOS_COMMON_STATS_HH

#include <cmath>
#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace aos {

/** A named monotonically increasing (or settable) counter. */
class Scalar
{
  public:
    Scalar() = default;
    explicit Scalar(std::string name) : _name(std::move(name)) {}

    Scalar &operator++() { ++_value; return *this; }
    Scalar &operator+=(double amount) { _value += amount; return *this; }
    Scalar &operator=(double val) { _value = val; return *this; }

    double value() const { return _value; }
    const std::string &name() const { return _name; }

  private:
    std::string _name;
    double _value = 0;
};

/**
 * Sample distribution: running mean/stdev (Welford) plus optional
 * fixed-bucket histogram.
 */
class Distribution
{
  public:
    Distribution() = default;
    explicit Distribution(std::string name) : _name(std::move(name)) {}

    void
    sample(double val, u64 weight = 1)
    {
        for (u64 i = 0; i < weight; ++i) {
            ++_count;
            const double delta = val - _mean;
            _mean += delta / static_cast<double>(_count);
            _m2 += delta * (val - _mean);
        }
        if (_count == weight || val < _min)
            _min = val;
        if (_count == weight || val > _max)
            _max = val;
    }

    u64 count() const { return _count; }
    double mean() const { return _count ? _mean : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    double
    stdev() const
    {
        if (_count < 2)
            return 0.0;
        return std::sqrt(_m2 / static_cast<double>(_count));
    }

    const std::string &name() const { return _name; }

  private:
    std::string _name;
    u64 _count = 0;
    double _mean = 0;
    double _m2 = 0;
    double _min = 0;
    double _max = 0;
};

/** Integer-keyed occurrence histogram (used for PAC distributions). */
class Histogram
{
  public:
    void add(u64 key, u64 amount = 1) { _buckets[key] += amount; }

    u64
    get(u64 key) const
    {
        auto it = _buckets.find(key);
        return it == _buckets.end() ? 0 : it->second;
    }

    const std::map<u64, u64> &buckets() const { return _buckets; }

    /** Distribution over *bucket occupancies* for keys [0, keyspace). */
    Distribution
    occupancy(u64 keyspace) const
    {
        Distribution dist("occupancy");
        u64 nonzero = 0;
        for (const auto &[key, cnt] : _buckets) {
            dist.sample(static_cast<double>(cnt));
            ++nonzero;
        }
        for (u64 i = nonzero; i < keyspace; ++i)
            dist.sample(0.0);
        return dist;
    }

  private:
    std::map<u64, u64> _buckets;
};

/** A named set of scalar statistics, dumpable as "name value" lines. */
class StatSet
{
  public:
    explicit StatSet(std::string name = "stats") : _name(std::move(name)) {}

    Scalar &
    scalar(const std::string &name)
    {
        auto it = _scalars.find(name);
        if (it == _scalars.end())
            it = _scalars.emplace(name, Scalar(name)).first;
        return it->second;
    }

    double
    value(const std::string &name) const
    {
        auto it = _scalars.find(name);
        return it == _scalars.end() ? 0.0 : it->second.value();
    }

    bool has(const std::string &name) const { return _scalars.count(name); }

    void dump(std::ostream &os) const;

    const std::string &name() const { return _name; }
    const std::map<std::string, Scalar> &scalars() const { return _scalars; }

  private:
    std::string _name;
    std::map<std::string, Scalar> _scalars;
};

/** Geometric mean helper used by the figure harnesses. */
double geomean(const std::vector<double> &vals);

} // namespace aos

#endif // AOS_COMMON_STATS_HH
