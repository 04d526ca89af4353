#include "common/stats.hh"

#include <algorithm>
#include <cmath>

namespace toleo {

unsigned
LatencyHistogram::bucketIndex(std::uint64_t ns)
{
    if (ns < subCount)
        return static_cast<unsigned>(ns);
    // Position of the leading bit; ns >= 8 here, so octave >= subBits
    // and the shift below is non-negative.
    const auto octave = static_cast<unsigned>(
        63 - __builtin_clzll(ns));
    const auto sub = static_cast<unsigned>(
        (ns >> (octave - subBits)) & (subCount - 1));
    return subCount + (octave - subBits) * subCount + sub;
}

double
LatencyHistogram::bucketLowerNs(unsigned b)
{
    if (b < subCount)
        return static_cast<double>(b);
    const unsigned octave = subBits + (b - subCount) / subCount;
    const unsigned sub = (b - subCount) % subCount;
    const std::uint64_t lower =
        (std::uint64_t{1} << octave) +
        (static_cast<std::uint64_t>(sub) << (octave - subBits));
    return static_cast<double>(lower);
}

void
LatencyHistogram::sample(double ns)
{
    // Non-finite or negative latencies are caller bugs; degrade to
    // the nearest representable edge instead of corrupting a bucket.
    const double ceiling = 0x1p48 - 1.0;
    const double v =
        std::isfinite(ns) ? std::min(ceiling, std::max(0.0, ns))
                          : ceiling;
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = min_ < v ? min_ : v;
        max_ = max_ > v ? max_ : v;
    }
    ++count_;
    sum_ += v;
    const auto n = static_cast<std::uint64_t>(std::min(v, ceiling));
    ++buckets_[bucketIndex(n)];
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = min_ < other.min_ ? min_ : other.min_;
        max_ = max_ > other.max_ ? max_ : other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    for (unsigned b = 0; b < bucketTotal; ++b)
        buckets_[b] += other.buckets_[b];
}

double
LatencyHistogram::percentileNs(double p) const
{
    if (count_ == 0)
        return 0.0;
    const double frac = std::min(1.0, std::max(0.0, p));
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(frac * static_cast<double>(count_))));
    // The extreme ranks are tracked exactly; with 1 or 2 samples (or
    // all-equal values) every percentile lands here and is exact.
    if (rank >= count_)
        return max_;
    if (rank == 1)
        return min_;
    std::uint64_t seen = 0;
    for (unsigned b = 0; b < bucketTotal; ++b) {
        seen += buckets_[b];
        if (seen >= rank) {
            const double lower = bucketLowerNs(b);
            const double width =
                (b + 1 < bucketTotal ? bucketLowerNs(b + 1) : 0x1p48) -
                lower;
            const double mid = lower + width * 0.5;
            return std::min(max_, std::max(min_, mid));
        }
    }
    return max_;
}

void
LatencyHistogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

} // namespace toleo
