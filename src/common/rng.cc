#include "common/rng.hh"

#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "common/logging.hh"

namespace toleo {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

void
Rng::boundPanic()
{
    panic("Rng::nextBounded called with bound 0");
}

void
Rng::rangePanic()
{
    panic("Rng::nextRange: hi < lo");
}

double
Rng::nextGaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = 2.0 * nextDouble() - 1.0;
        v = 2.0 * nextDouble() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double mul = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * mul;
    haveSpare_ = true;
    return u * mul;
}

double
Rng::nextGaussian(double mean, double stddev)
{
    return mean + stddev * nextGaussian();
}

double
ZipfSampler::zeta(std::uint64_t n, double theta)
{
    // One table per process, shared by every sampler on every thread.
    // theta is keyed by its bits: a NaN double key would break the
    // map's ordering.  The lock is held through a miss's sum, so each
    // key is summed once, in the one fixed order.
    static std::mutex mutex;
    static std::map<std::pair<std::uint64_t, std::uint64_t>, double> memo;
    std::uint64_t thetaBits = 0;
    std::memcpy(&thetaBits, &theta, sizeof thetaBits);
    const std::pair<std::uint64_t, std::uint64_t> key{n, thetaBits};
    const std::lock_guard<std::mutex> lock(mutex);
    auto it = memo.find(key);
    if (it == memo.end()) {
        double sum = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        it = memo.emplace(key, sum).first;
    }
    return it->second;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), rng_(seed)
{
    if (n == 0)
        panic("ZipfSampler domain must be non-empty");
    // Cap the zeta sum for very large domains; the tail contributes
    // negligibly and exact summation would dominate setup time.
    const std::uint64_t cap = n > 10'000'000 ? 10'000'000 : n;
    zetan_ = zeta(cap, theta);
    if (cap < n) {
        // Integral approximation of the remaining tail.
        zetan_ += (std::pow(static_cast<double>(n), 1.0 - theta) -
                   std::pow(static_cast<double>(cap), 1.0 - theta)) /
                  (1.0 - theta);
    }
    alpha_ = 1.0 / (1.0 - theta);
    const double zeta2 = zeta(2, theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
    powHalfTheta_ = std::pow(0.5, theta);
}

std::uint64_t
ZipfSampler::next()
{
    const double u = rng_.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + powHalfTheta_)
        return 1;
    const double frac =
        std::pow(eta_ * u - eta_ + 1.0, alpha_);
    // Clamp BEFORE the conversion: float->unsigned is UB for values
    // the target cannot represent, so an over-range or NaN frac
    // (possible when eta_ makes pow's base negative) must never
    // reach the cast.  For in-range draws the result is unchanged
    // from the historical cast-then-clamp shape.
    const double scaled = static_cast<double>(n_) * frac;
    if (!std::isfinite(scaled) || scaled >= static_cast<double>(n_))
        return n_ - 1;
    return static_cast<std::uint64_t>(scaled);
}

} // namespace toleo
