/**
 * @file
 * Open-loop serving statistics: the per-request latency histogram
 * (LatencyHistogram) and the record a node or rack reports
 * (ServingStats).
 */

#ifndef TOLEO_COMMON_STATS_HH
#define TOLEO_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <string>

namespace toleo {

/**
 * Fixed-bucket log-scale histogram for per-request latencies in
 * nanoseconds.
 *
 * Buckets are HDR-style: a linear region for [0, 8) ns, then 8
 * sub-buckets per power of two up to ~2^48 ns, so relative resolution
 * stays within 12.5% across twelve orders of magnitude at a fixed
 * 368-counter footprint.  Indexing is pure integer bit manipulation
 * (no libm), so bucket placement is bit-identical across hosts.
 *
 * Percentiles use exact nearest-rank counting (no interpolation): the
 * value at rank ceil(p * count).  The first and last ranks return the
 * exactly-tracked min/max, and interior ranks return the bucket
 * midpoint clamped to [min, max] — so 0/1/2-sample and all-equal
 * distributions report exact values, not bucket artifacts.
 *
 * merge() adds another histogram's counts; rack-level serving stats
 * merge per-node histograms so rack percentiles are computed over the
 * full request population rather than averaged per node.
 */
class LatencyHistogram
{
  public:
    /** Sub-buckets per power of two (8 => 12.5% resolution). */
    static constexpr unsigned subBits = 3;
    static constexpr unsigned subCount = 1u << subBits;
    /** Largest octave tracked: values clamp below 2^48 ns (~3 days). */
    static constexpr unsigned maxOctave = 47;
    /** Total bucket count: linear region + 8 per octave above it. */
    static constexpr unsigned bucketTotal =
        subCount + (maxOctave - subBits + 1) * subCount;

    void sample(double ns);
    void merge(const LatencyHistogram &other);

    std::uint64_t count() const { return count_; }
    double sumNs() const { return sum_; }
    double meanNs() const { return count_ ? sum_ / count_ : 0.0; }
    double minNs() const { return count_ ? min_ : 0.0; }
    double maxNs() const { return count_ ? max_ : 0.0; }

    /** Exact nearest-rank percentile, p in [0, 1]; 0 when empty. */
    double percentileNs(double p) const;

    /** Inclusive lower bound of a bucket, in nanoseconds. */
    static double bucketLowerNs(unsigned b);

    void reset();

  private:
    static unsigned bucketIndex(std::uint64_t ns);

    std::array<std::uint64_t, bucketTotal> buckets_{};
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Open-loop request-serving statistics for one node, or a rack-level
 * aggregate (merged across nodes).
 *
 * `arrival` names the arrival model ("poisson" / "burst") and is empty
 * for closed-loop runs; every serializer keys off that, so enabling
 * the serving layer never perturbs closed-mode output.  Rates are
 * requests per second; latencies are microseconds.  "Offered" is what
 * the arrival process generated, "completed" what the node served,
 * and "goodput" the completed-within-SLO share of that.
 */
struct ServingStats
{
    /** Arrival model name; empty means closed loop (not serving). */
    std::string arrival;
    /** Configured offered request rate (node-wide), requests/sec. */
    double offeredRatePerSec = 0.0;
    /** SLO latency threshold, microseconds. */
    double sloUs = 0.0;
    /** Requests completed inside the measurement window. */
    std::uint64_t requests = 0;
    /** Completed requests with latency <= sloUs. */
    std::uint64_t sloMet = 0;
    /** Measurement-start to last-completion span, seconds. */
    double spanSeconds = 0.0;
    /** Measured arrival rate: requests / arrival span. */
    double offeredRps = 0.0;
    /** Completion throughput: requests / spanSeconds. */
    double completedRps = 0.0;
    /** SLO-meeting throughput: sloMet / spanSeconds. */
    double goodputRps = 0.0;
    /** Fraction of completed requests that met the SLO. */
    double sloAttainment = 0.0;
    double meanLatencyUs = 0.0;
    /** Mean queueing delay (arrival to service start). */
    double meanQueueUs = 0.0;
    /** Mean pure service (execution) time per request. */
    double meanServiceUs = 0.0;
    double p50LatencyUs = 0.0;
    double p99LatencyUs = 0.0;
    double p999LatencyUs = 0.0;
    double maxLatencyUs = 0.0;
    /** Full latency distribution (ns), mergeable across nodes. */
    LatencyHistogram latency;
};

} // namespace toleo

#endif // TOLEO_COMMON_STATS_HH
