/**
 * @file
 * Memory-protection engine interface.
 *
 * The simulation driver feeds every LLC miss (read fill) and dirty
 * LLC eviction (writeback) to the configured engine.  The engine
 * models the metadata side of the access -- MAC fetches, version
 * lookups, Merkle walks, dummy packets -- by accounting traffic on the
 * memory topology's channels and returning the latency added to the
 * critical path of a read.
 *
 * Engines correspond to the paper's evaluated configurations
 * (Section 7): NoProtect, C, CI, Toleo (in src/toleo), InvisiMem,
 * plus a Merkle-tree baseline used for ablations.
 */

#ifndef TOLEO_SECMEM_ENGINE_HH
#define TOLEO_SECMEM_ENGINE_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "mem/topology.hh"

namespace toleo {

/** Cost of the metadata work for one block access. */
struct MetaCost
{
    /** Serialized latency added to a read's critical path, ns. */
    double latencyNs = 0.0;
    /** Bytes of metadata moved on conventional memory channels. */
    std::uint64_t metaBytes = 0;
};

class ProtectionEngine
{
  public:
    explicit ProtectionEngine(std::string name, MemTopology &topo)
        : name_(std::move(name)), topo_(topo)
    {}
    virtual ~ProtectionEngine() = default;

    /** A block is being fetched from memory into the LLC.
     *  Engines mutate genuinely shared state (topology channels,
     *  metadata caches, version stores), so only the
     *  single-threaded shared replay calls the request hooks. */
    virtual MetaCost onRead(BlockNum blk) = 0;

    /** A dirty block is being written back from the LLC to memory. */
    virtual MetaCost onWriteback(BlockNum blk) = 0;

    /** Does this engine guarantee confidentiality? */
    virtual bool confidentiality() const = 0;
    /** Does this engine guarantee integrity? */
    virtual bool integrity() const = 0;
    /** Does this engine guarantee freshness? */
    virtual bool freshness() const = 0;
    /** Can it protect the full physical memory space (28 TB)? */
    virtual bool fullMemory() const = 0;

    /**
     * Open the measurement window: zero every statistic the engine
     * reports (cache hit counters, traffic and event counts), and
     * keep its functional and cache state -- cached metadata,
     * versions and epoch padding state carry over from warmup.  The
     * shared replay calls it once, at the warmup->measure reset.
     */
    virtual void resetMeasurement() {}

    const std::string &name() const { return name_; }

  protected:
    std::string name_;
    MemTopology &topo_;

    /** Core cycles -> ns at the simulated core clock. */
    static double
    cyclesToNs(Cycles c)
    {
        return static_cast<double>(c) / coreClockGhz;
    }
};

} // namespace toleo

#endif // TOLEO_SECMEM_ENGINE_HH
