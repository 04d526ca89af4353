/**
 * @file
 * Workload abstraction for the trace-driven simulation.
 *
 * The paper evaluates 12 privacy-sensitive applications (Table 2).
 * We reproduce each with a synthetic generator that emits an infinite
 * stream of memory references whose *statistical* properties --
 * footprint, LLC MPKI, read/write mix, spatial locality of writes
 * (hence Trip behaviour), and page-level reuse (hence stealth-cache
 * behaviour) -- are calibrated to the benchmark it stands in for.
 */

#ifndef TOLEO_WORKLOAD_WORKLOAD_HH
#define TOLEO_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace toleo {

/** One memory reference emitted by a generator. */
struct MemRef
{
    Addr addr = 0;
    bool isWrite = false;
    /**
     * Last reference of a request: request-shaped generators flag the
     * end of every request they plan, and RequestSource flags fixed
     * slices of any other stream.  The front end stages every one,
     * only the open-loop serving layer counts them, and traces do
     * not record it.
     */
    bool endsRequest = false;
    /** Non-memory instructions executed since the previous ref. */
    std::uint32_t instGap = 0;
};
static_assert(sizeof(MemRef) == 16, "MemRef fits in 16 bytes");

/** Static description of a benchmark (reported in Table 2). */
struct WorkloadInfo
{
    std::string name;
    std::string suite;
    /** Paper-reported peak resident set size, bytes. */
    std::uint64_t paperRssBytes = 0;
    /** Paper-reported LLC misses per kilo-instruction. */
    double paperLlcMpki = 0.0;
    /** Footprint of the scaled simulation, bytes (per core). */
    std::uint64_t simFootprintBytes = 0;
    /**
     * Memory-level parallelism factor used by the core stall model:
     * how many outstanding misses overlap on average.
     */
    double mlp = 4.0;
};

/**
 * Infinite reference-stream generator (one instance per core).
 * nextBatch() is the one draw every generator implements, and the
 * stream it yields must not depend on how it is sliced into batches;
 * next() is a batch of one.
 */
class TraceGen
{
  public:
    explicit TraceGen(WorkloadInfo info) : info_(std::move(info)) {}
    virtual ~TraceGen() = default;

    /**
     * Produce the next @p n references into @p out, writing every
     * field of each: callers reuse one buffer across batches, so a
     * field left alone would carry an earlier batch's value.  One
     * virtual dispatch per batch.  Generators are per-core
     * instances, owned by the core's CoreFront (sim/front_end.hh),
     * so the draw paths run in the concurrent private phase and
     * must write only the generator's own state.
     */
    virtual void nextBatch(MemRef *out, std::size_t n) = 0;

    /** Produce the next reference: a batch of one. */
    MemRef
    next()
    {
        MemRef ref;
        nextBatch(&ref, 1);
        return ref;
    }

    const WorkloadInfo &info() const { return info_; }

  protected:
    WorkloadInfo info_;
};

/** Names of the 12 paper workloads, in Table 2 order. */
const std::vector<std::string> &paperWorkloads();

/**
 * Instantiate the per-core generator for a named workload.
 * @param name Workload name (see paperWorkloads()).
 * @param core Core id; shifts the generator's address region and seed
 *        so cores work on disjoint partitions.
 * @param seed Global seed for reproducibility.
 */
std::unique_ptr<TraceGen> makeWorkload(const std::string &name,
                                       unsigned core,
                                       std::uint64_t seed);

/** Table-2 metadata for a named workload (fatal on unknown name). */
WorkloadInfo workloadInfo(const std::string &name);

} // namespace toleo

#endif // TOLEO_WORKLOAD_WORKLOAD_HH
