/**
 * @file
 * Open-loop request layer: arrival models and the RequestSource
 * wrapper that marks where requests end in a generator's MemRef
 * stream.
 *
 * The closed-loop replay core stays untouched: a RequestSource
 * delegates every draw to the wrapped generator (addresses, stores and
 * gaps are bit-identical to the unwrapped stream) and only sets
 * MemRef::endsRequest.  The front end stages every flagged reference;
 * the System counts the measured ones of an open-loop run and runs
 * the arrival process as a timing overlay, so the `closed` arrival
 * model is the degenerate case with no wrapper at all, and every
 * existing fixed-seed output is trivially preserved.
 *
 * Request ends come from the generator when it is request-shaped
 * (RequestShapedGen: kvs/nat/bm25/knn plan whole requests and flag
 * each one's last reference), and from fixed-size slicing
 * (ArrivalConfig::requestRefs) for plain mix generators and trace
 * replay, which carry no request structure.
 */

#ifndef TOLEO_WORKLOAD_REQUEST_HH
#define TOLEO_WORKLOAD_REQUEST_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "workload/workload.hh"

namespace toleo {

/** Request interarrival process. */
enum class ArrivalKind
{
    Closed,  ///< Degenerate closed loop: next request starts at once.
    Poisson, ///< Exponential interarrivals at a fixed mean rate.
    Burst,   ///< Lognormal interarrivals: mean rate + tunable CV.
};

/** Printable name of an arrival kind ("closed" / "poisson" / "burst"). */
const char *arrivalKindName(ArrivalKind kind);

/**
 * Arrival-model configuration, carried by SystemConfig/SweepOptions.
 * Rates are node-wide requests/second, split evenly across cores.
 */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Closed;
    /** Offered request rate, requests/second (node-wide). */
    double ratePerSec = 0.0;
    /** Burst only: coefficient of variation of the interarrival. */
    double cv = 1.0;
    /** Refs per request for generators with no request shape. */
    std::uint64_t requestRefs = 64;
    /** SLO latency threshold, microseconds. */
    double sloUs = 100.0;

    /** True when the run is open-loop (serving layer active). */
    bool open() const { return kind != ArrivalKind::Closed; }
};

/**
 * Parse an `--arrival` spec: "closed", "poisson:<rate>", or
 * "burst:<rate>,<cv>".  On failure returns false and fills `err`;
 * on success overwrites kind/ratePerSec/cv and leaves the other
 * fields of `out` untouched.
 */
bool parseArrivalSpec(const std::string &spec, ArrivalConfig &out,
                      std::string &err);

/**
 * Draw one interarrival gap in nanoseconds for a per-core arrival
 * process of `ratePerSec` requests/second.  Deterministic given the
 * Rng state; for a fixed seed the underlying uniform draws are
 * rate-independent, so scaling the rate scales every gap by the same
 * factor — the monotone-degradation property the acceptance tests pin.
 */
double drawInterarrivalNs(const ArrivalConfig &cfg, double ratePerSec,
                          Rng &rng);

/**
 * Marker for a generator that plans whole requests and flags the last
 * reference of each one (MemRef::endsRequest) itself, in closed loop
 * too: its stream is the same with or without a RequestSource.
 */
class RequestShapedGen : public TraceGen
{
  public:
    using TraceGen::TraceGen;
};

/**
 * Transparent TraceGen wrapper that makes the stream carry request
 * ends.  A request-shaped inner stream already does and passes
 * through untouched; any other stream gets every requestRefs-th
 * reference flagged, counted across batches, so where requests end
 * never depends on how the stream is sliced into batches.
 */
class RequestSource : public TraceGen
{
  public:
    /**
     * Wrap `inner`.  If `inner` is request-shaped its own request
     * ends are used; otherwise the stream is sliced into fixed-size
     * requests of `requestRefs` refs (must be >= 1).
     */
    RequestSource(std::unique_ptr<TraceGen> inner,
                  std::uint64_t requestRefs);

    void nextBatch(MemRef *out, std::size_t n) override;

  private:
    std::unique_ptr<TraceGen> inner_;
    /** Refs per fixed-size request; 0 when inner_ is request-shaped. */
    std::uint64_t fixedRefs_;
    /** Refs until the next fixed-size request end, >= 1. */
    std::uint64_t leftInRequest_;
};

} // namespace toleo

#endif // TOLEO_WORKLOAD_REQUEST_HH
