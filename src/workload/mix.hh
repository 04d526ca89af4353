/**
 * @file
 * Composable reference-stream engine.
 *
 * Every paper workload decomposes into a weighted mix of a few
 * primitive access patterns:
 *
 *  - HotSeq: sequential sweep over a small cache-resident buffer
 *    (models compute-local reuse: DP tiles, frontier queues, request
 *    parsing state);
 *  - StreamSeq: streaming sweep over a large region (edge lists, LLM
 *    weights, DP output rows, KV-cache appends);
 *  - UniformRandom: uniform random blocks over a region (score
 *    arrays, hash-table inserts);
 *  - Zipf: skewed popularity over a region (hash probes, index
 *    lookups);
 *  - GaussPage: Gaussian-distributed page + random block within it
 *    (memtier key popularity for redis/memcached, Section 7).
 *
 * A MixWorkload draws a stream by weight each step and advances that
 * stream's cursor.  Workload definitions in generators.cc are thin
 * tables of StreamSpecs.
 */

#ifndef TOLEO_WORKLOAD_MIX_HH
#define TOLEO_WORKLOAD_MIX_HH

#include <memory>
#include <vector>

#include "common/rng.hh"
#include "workload/workload.hh"

namespace toleo {

enum class Pattern
{
    HotSeq,
    StreamSeq,
    UniformRandom,
    Zipf,
    GaussPage,
    /**
     * Random blocks within a small, slowly-changing set of "active"
     * pages.  Models the page-level locality real irregular kernels
     * exhibit -- BFS frontier order, delta-stepping buckets, FM-index
     * tree levels, community structure -- which is what gives the
     * paper's graph/genomics workloads their ~98% stealth-cache hit
     * rates despite irregular block access.
     */
    PageLocalRandom,
};

/** One primitive access stream within a workload mix. */
struct StreamSpec
{
    Pattern pattern = Pattern::HotSeq;
    /** Region size in bytes (per core). */
    std::uint64_t regionBytes = 64 * KiB;
    /** Relative selection weight within the mix. */
    double weight = 1.0;
    /** Probability that a reference from this stream is a store. */
    double writeProb = 0.0;
    /** Access stride for sequential patterns, bytes. */
    unsigned strideBytes = 8;
    /** Zipf exponent (Pattern::Zipf). */
    double theta = 0.99;
    /** Gaussian sigma in pages (Pattern::GaussPage). */
    double sigmaPages = 64.0;
    /** Consecutive blocks touched per draw (GaussPage bursts). */
    unsigned burstBlocks = 1;
    /**
     * Zipf only: map popularity rank r to block r directly (tree/
     * index layouts cluster hot nodes) instead of scattering ranks
     * across the region (hash layouts).
     */
    bool clustered = false;
    /** PageLocalRandom: number of concurrently active pages. */
    unsigned activePages = 8;
    /** PageLocalRandom: per-access probability of page turnover. */
    double pageTurnover = 0.05;
};

/** Full workload mix definition. */
struct MixSpec
{
    std::vector<StreamSpec> streams;
    /** Mean non-memory instructions between references. */
    double meanGap = 8.0;
};

class MixWorkload : public TraceGen
{
  public:
    MixWorkload(WorkloadInfo info, MixSpec spec, unsigned core,
                std::uint64_t seed);

    void nextBatch(MemRef *out, std::size_t n) override;

  private:
    struct StreamState
    {
        StreamSpec spec;
        Addr base = 0;            ///< region base address
        std::uint64_t cursor = 0; ///< sequential cursor (bytes)
        std::unique_ptr<ZipfSampler> zipf;
        unsigned burstLeft = 0;   ///< remaining blocks of a burst
        Addr burstAddr = 0;
        std::vector<std::uint64_t> active; ///< PageLocalRandom pages
    };

    MixSpec spec_;
    std::vector<StreamState> streams_;
    std::vector<double> cumWeight_;
    /** Hoisted per-reference constants (see draw()). */
    double totalWeight_ = 0.0;
    std::uint64_t gapLo_ = 0;
    std::uint64_t gapHi_ = 0;
    Rng rng_;

    /** One reference: stream selection, address, store, and gap. */
    MemRef draw();
    Addr addrFor(StreamState &st);
};

} // namespace toleo

#endif // TOLEO_WORKLOAD_MIX_HH
