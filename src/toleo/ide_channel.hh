/**
 * @file
 * Functional model of the CXL 2.0 IDE secure channel (Section 3.1).
 *
 * IDE protects traffic at flit granularity with a non-deterministic
 * AES stream cipher plus MAC, giving confidentiality, integrity, and
 * replay protection on the link.  Two properties matter for Toleo's
 * security argument (Section 4.2):
 *
 *  - the stream cipher is *non-deterministic*: two transmissions of
 *    the same stealth version yield different ciphertext, so link
 *    snooping learns nothing (this is what lets short stealth
 *    versions repeat safely);
 *  - per-direction monotonic sequence numbers make replayed flits
 *    fail their MAC.
 *
 * In skid mode the receiver releases payloads before the integrity
 * check completes (checks trail by a configurable number of flits);
 * tampering is still caught, just a few flits late -- the model lets
 * tests observe exactly that window.
 */

#ifndef TOLEO_TOLEO_IDE_CHANNEL_HH
#define TOLEO_TOLEO_IDE_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "crypto/modes.hh"

namespace toleo {

/** One encrypted flit on the link (adversary-visible). */
struct IdeFlit
{
    Bytes cipher;
    std::uint64_t mac = 0;
};

/**
 * One direction of an IDE stream: sender side encrypts + tags,
 * receiver side decrypts + verifies against its own expected
 * sequence number.
 */
class IdeStream
{
  public:
    /**
     * @param key Session key from the TDISP exchange.
     * @param skid_depth 0 = verify before release; N > 0 = release
     *        payloads immediately, verification trails by up to N
     *        flits (skid mode).
     */
    explicit IdeStream(const AesKey &key, unsigned skid_depth = 0);

    /** Sender: protect a payload for transmission. */
    IdeFlit send(const Bytes &payload);

    /**
     * Receiver: accept the next flit.
     * @return The payload, or nullopt once the stream is poisoned
     *         (a failed check latches, like the kill switch).
     *
     * In skid mode the payload of a tampered flit may be released,
     * but the stream poisons within skid_depth flits -- mirroring the
     * paper's "withhold data from the CPU until both checks are
     * done" integration point.
     */
    std::optional<Bytes> receive(const IdeFlit &flit);

    /** Has any integrity check failed so far? */
    bool poisoned() const { return poisoned_; }

    /** Flits released whose verification is still pending. */
    unsigned pendingChecks() const { return pending_.size(); }

  private:
    AesCtr cipher_;
    Mac56 mac_;
    unsigned skidDepth_;
    std::uint64_t sendSeq_ = 0;
    std::uint64_t recvSeq_ = 0;
    bool poisoned_ = false;
    /** Deferred verification queue (skid mode). */
    std::deque<bool> pending_;
};

/**
 * Deterministic multi-initiator arbiter for the device-side IDE
 * front end (rack mode, sim/rack.hh).
 *
 * N compute nodes each talk to the shared Toleo device over their
 * own IDE link; the device's version-store service capacity is what
 * they contend for.  Each epoch the rack driver enqueues every
 * node's link traffic on its port and calls serveEpoch() with the
 * bytes the device can service in that epoch.  Capacity is divided
 * max-min fairly: every backlogged port gets an equal share, ports
 * needing less donate their surplus, and the sub-port remainder goes
 * to ports in rotating round-robin order so no port is
 * systematically favoured.  Unserved bytes stay queued and carry
 * into the next epoch -- that backlog is the queueing the rack's
 * contention stats report.
 *
 * Byte-granular and integer-only, so arbitration is exactly
 * reproducible across runs and platforms (the golden rack stats
 * depend on it).
 */
class IdeLinkArbiter
{
  public:
    explicit IdeLinkArbiter(unsigned ports);

    /** Queue @p bytes of link traffic on @p port.  Arbiter state is
     *  rack-shared: only the serial shared sub-phase of the rack
     *  epoch loop may call this (never a node's private half). */
    void enqueue(unsigned port, std::uint64_t bytes);

    /**
     * Serve up to @p capacityBytes across the ports (max-min fair).
     * Rack-shared, like enqueue(): serial sub-phase only.
     * @return Bytes actually granted (<= capacity and <= demand).
     */
    std::uint64_t serveEpoch(std::uint64_t capacityBytes);

    /** Bytes still queued on @p port after the last serveEpoch(). */
    std::uint64_t pendingBytes(unsigned port) const
    {
        return ports_[port].pending;
    }
    /** Bytes granted to @p port by the last serveEpoch(). */
    std::uint64_t grantedLastEpoch(unsigned port) const
    {
        return ports_[port].grantedLast;
    }
    /** Total queued bytes across every port. */
    std::uint64_t totalPendingBytes() const;
    /** Bytes granted over the arbiter lifetime. */
    std::uint64_t totalGrantedBytes() const { return totalGranted_; }
    /** High-water mark of total backlog left after a serveEpoch(). */
    std::uint64_t peakBacklogBytes() const { return peakBacklog_; }
    unsigned ports() const
    {
        return static_cast<unsigned>(ports_.size());
    }

  private:
    struct Port
    {
        std::uint64_t pending = 0;
        std::uint64_t grantedLast = 0;
    };

    std::vector<Port> ports_;
    /** Rotating start port for remainder grants. */
    unsigned rrStart_ = 0;
    std::uint64_t totalGranted_ = 0;
    std::uint64_t peakBacklog_ = 0;
};

} // namespace toleo

#endif // TOLEO_TOLEO_IDE_CHANNEL_HH
