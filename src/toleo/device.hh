/**
 * @file
 * The Toleo smart-memory device (Sections 4-5).
 *
 * A trusted PIM device behind a CXL 2.0 IDE link: a logic die with a
 * simple in-order controller core, a D-RaNGe TRNG, and package-
 * enclosed DRAM holding the Trip version store.  The device accepts
 * three request types from the host (Section 5):
 *
 *  - READ(block)   -> stealth version;
 *  - UPDATE(block) -> incremented stealth version (may trigger a
 *                     stealth reset, surfaced to the host as a
 *                     UV_UPDATE that re-encrypts the page);
 *  - RESET(page)   -> OS-initiated downgrade to flat on page free or
 *                     remap (scrambles old contents).
 *
 * Space management (Section 4.4): the flat-entry array is statically
 * sized for the protected physical memory; uneven and full entries
 * are allocated dynamically from the remaining capacity.  When space
 * runs out the device rejects upgrades until the host OS downgrades
 * inactive pages.
 */

#ifndef TOLEO_TOLEO_DEVICE_HH
#define TOLEO_TOLEO_DEVICE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "toleo/trip.hh"

namespace toleo {

struct ToleoDeviceConfig
{
    /** Total smart-memory capacity (168 GB in the paper). */
    std::uint64_t capacityBytes = 168ULL * 1000 * 1000 * 1000;
    /** Conventional memory the device protects (24.8 TB of data
     *  out of the rack's 28 TB; the rest holds MACs and UVs).
     *  25395 GiB = trunc(24.8 * 1024) GiB, spelled as an integer so
     *  no float->unsigned conversion is involved. */
    std::uint64_t protectedBytes = 25395 * GiB;
    TripConfig trip;
};

class ToleoDevice
{
  public:
    explicit ToleoDevice(const ToleoDeviceConfig &cfg);

    /** READ request: current stealth version of a block.
     *  The device is one shared instance (per node, or per rack with
     *  multiple initiators); requests are issued strictly in the
     *  global replay order. */
    std::uint64_t read(BlockNum blk);

    /** UPDATE request: increment and return the new version state. */
    TripUpdateResult update(BlockNum blk);

    /** RESET request (host OS page free/remap downgrade). */
    void reset(PageNum page);

    /** Full 64-bit version (host-side view: UV ‖ stealth). */
    std::uint64_t fullVersion(BlockNum blk) const;

    TripFormat formatOf(PageNum page) const;

    /** Static flat-entry array size for the protected region. */
    std::uint64_t flatArrayBytes() const;

    /** Capacity left for dynamic uneven/full entries. */
    std::uint64_t dynamicCapacityBytes() const;

    /** Dynamic bytes currently allocated. */
    std::uint64_t dynamicBytesUsed() const { return store_.dynamicBytes(); }

    /** True when dynamic space is exhausted (host must downgrade). */
    bool spaceExhausted() const;

    /**
     * Bytes in use for the pages this device has seen an UPDATE for:
     * their flat entries plus the dynamic entries.  Figure 12 prices
     * the whole RSS instead (TripStore::usageBytes), cold pages
     * included.
     */
    std::uint64_t
    usageBytes() const
    {
        return store_.usageBytes(store_.touchedPages());
    }

    /**
     * Multi-initiator support (rack mode, Figure 1): one device
     * serves several compute nodes over per-node IDE links.  Each
     * node is an *initiator*; the device partitions its page-number
     * space with a fixed per-initiator stride so nodes' version
     * state never collides (each node protects its own slice of the
     * rack's pooled memory), and attributes request counts to the
     * active initiator so the rack arbiter can bill contention.
     *
     * The rack driver steps nodes strictly round-robin, so a single
     * setActiveInitiator() call per node step replaces any
     * per-request initiator plumbing.  Initiator 0 always exists
     * with a zero offset: a device that never sees addInitiator() /
     * setActiveInitiator() behaves (and performs) exactly as before.
     */
    static constexpr std::uint64_t initiatorPageStride =
        std::uint64_t{1} << 40;

    /** Register one more initiator; returns its id (1, 2, ...). */
    unsigned addInitiator();
    /** Route subsequent requests (and their stats) to @p id.
     *  Device-global routing state: rack drivers may only switch
     *  initiators from the serial shared sub-phase, between nodes'
     *  replays -- never while private halves are in flight. */
    void setActiveInitiator(unsigned id);
    /** READ+UPDATE+RESET requests by @p id since the epoch opened. */
    std::uint64_t epochRequests(unsigned id) const
    {
        return initiators_[id].epochReqs;
    }
    /** READ+UPDATE+RESET requests by @p id over the device lifetime. */
    std::uint64_t totalRequests(unsigned id) const
    {
        return initiators_[id].totalReqs;
    }
    /** Open a new arbitration epoch: zero per-initiator counts.
     *  Serial shared sub-phase only, like setActiveInitiator(). */
    void beginInitiatorEpoch();

    TripStore &store() { return store_; }
    const TripStore &store() const { return store_; }
    /** Requests by type over the device lifetime, all initiators.
     *  Stealth resets and upgrades are the store's to count
     *  (TripStore::resets(), upgradesToUneven(), upgradesToFull()). */
    std::uint64_t readRequests() const { return readReqs_; }
    std::uint64_t updateRequests() const { return updateReqs_; }
    std::uint64_t resetRequests() const { return resetReqs_; }
    /** Upgrades that found the dynamic space exhausted. */
    std::uint64_t spaceRejections() const { return spaceRejections_; }
    const ToleoDeviceConfig &config() const { return cfg_; }

  private:
    ToleoDeviceConfig cfg_;
    TripStore store_;
    std::uint64_t readReqs_ = 0;
    std::uint64_t updateReqs_ = 0;
    std::uint64_t resetReqs_ = 0;
    std::uint64_t spaceRejections_ = 0;

    struct Initiator
    {
        std::uint64_t epochReqs = 0;
        std::uint64_t totalReqs = 0;
    };

    /**
     * With several initiators, a page number at or past the stride
     * would silently alias the next initiator's slice (e.g. a
     * converted trace carrying kernel-space addresses); reject it.
     * A single-initiator device has no neighbour to collide with,
     * so the classic path stays unrestricted.
     */
    void
    checkInitiatorRange(PageNum page) const
    {
        if (initiators_.size() > 1 && page >= initiatorPageStride)
            rangePanic(page);
    }
    [[noreturn]] void rangePanic(PageNum page) const;
    /** Initiator 0 (the classic single-node owner) always exists. */
    std::vector<Initiator> initiators_{1};
    unsigned active_ = 0;
    /** Cached offsets of the active initiator (hot request path). */
    std::uint64_t activePageOff_ = 0;
    std::uint64_t activeBlockOff_ = 0;

    void
    noteRequest()
    {
        Initiator &ini = initiators_[active_];
        ++ini.epochReqs;
        ++ini.totalReqs;
    }
};

} // namespace toleo

#endif // TOLEO_TOLEO_DEVICE_HH
