#include "workload/request.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace toleo {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Closed:
        return "closed";
      case ArrivalKind::Poisson:
        return "poisson";
      case ArrivalKind::Burst:
        return "burst";
    }
    panic("arrivalKindName: unknown kind");
}

namespace {

/** Parse a finite double; false on any leftover (NaN/inf rejected). */
bool
parseFinite(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    if (!std::isfinite(v))
        return false;
    out = v;
    return true;
}

/** Parse a strictly-positive finite double; false on any leftover. */
bool
parsePositive(const std::string &text, double &out)
{
    double v = 0.0;
    if (!parseFinite(text, v) || v <= 0.0)
        return false;
    out = v;
    return true;
}

} // namespace

bool
parseArrivalSpec(const std::string &spec, ArrivalConfig &out,
                 std::string &err)
{
    if (spec == "closed") {
        out.kind = ArrivalKind::Closed;
        out.ratePerSec = 0.0;
        return true;
    }
    const auto colon = spec.find(':');
    const std::string head = spec.substr(0, colon);
    const std::string tail =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (head == "poisson") {
        double rate = 0.0;
        if (!parsePositive(tail, rate)) {
            err = "poisson arrival needs a positive finite rate: "
                  "poisson:<req/s>";
            return false;
        }
        out.kind = ArrivalKind::Poisson;
        out.ratePerSec = rate;
        return true;
    }
    if (head == "burst") {
        const auto comma = tail.find(',');
        if (comma == std::string::npos) {
            err = "burst arrival needs a rate and a CV separated by "
                  "a comma: burst:<req/s>,<cv>";
            return false;
        }
        double rate = 0.0;
        if (!parsePositive(tail.substr(0, comma), rate)) {
            err = "burst arrival rate must be a positive finite "
                  "req/s value: burst:<req/s>,<cv>";
            return false;
        }
        // CV = 0 is legitimate: the lognormal interarrival
        // degenerates to the deterministic mean (same RNG draw
        // count, so it composes with every determinism contract).
        // Only negative and non-finite CVs have no meaning.
        double cv = 0.0;
        if (!parseFinite(tail.substr(comma + 1), cv) || cv < 0.0) {
            err = "burst arrival CV must be a finite value >= 0 "
                  "(0 = deterministic interarrivals): "
                  "burst:<req/s>,<cv>";
            return false;
        }
        out.kind = ArrivalKind::Burst;
        out.ratePerSec = rate;
        out.cv = cv;
        return true;
    }
    err = "unknown arrival model '" + spec +
          "' (expected closed, poisson:<rate>, or burst:<rate>,<cv>)";
    return false;
}

double
drawInterarrivalNs(const ArrivalConfig &cfg, double ratePerSec, Rng &rng)
{
    const double mean_ns = 1e9 / ratePerSec;
    switch (cfg.kind) {
      case ArrivalKind::Closed:
        return 0.0;
      case ArrivalKind::Poisson: {
        // Inverse-CDF exponential; u in [0, 1) keeps the log finite.
        const double u = rng.nextDouble();
        return -std::log(1.0 - u) * mean_ns;
      }
      case ArrivalKind::Burst: {
        // Lognormal with the requested mean and CV: the same Gaussian
        // draw sequence scales by 1/rate, like the exponential above.
        const double sigma2 = std::log1p(cfg.cv * cfg.cv);
        const double mu = std::log(mean_ns) - 0.5 * sigma2;
        return std::exp(rng.nextGaussian(mu, std::sqrt(sigma2)));
      }
    }
    panic("drawInterarrivalNs: unknown kind");
}

RequestSource::RequestSource(std::unique_ptr<TraceGen> inner,
                             std::uint64_t requestRefs)
    : TraceGen(inner->info()), inner_(std::move(inner)),
      fixedRefs_(requestRefs), leftInRequest_(requestRefs)
{
    if (dynamic_cast<RequestShapedGen *>(inner_.get()))
        fixedRefs_ = 0; // the generator flags its own request ends
    else if (fixedRefs_ == 0)
        panic("RequestSource: requestRefs must be >= 1");
}

void
RequestSource::nextBatch(MemRef *out, std::size_t n)
{
    inner_->nextBatch(out, n);
    if (fixedRefs_ == 0)
        return;
    // Flag the end of every request that completes in this batch; the
    // inner generator left every other flag false.
    std::size_t i = 0;
    while (leftInRequest_ <= n - i) {
        i += static_cast<std::size_t>(leftInRequest_);
        out[i - 1].endsRequest = true;
        leftInRequest_ = fixedRefs_;
    }
    leftInRequest_ -= n - i;
}

} // namespace toleo
