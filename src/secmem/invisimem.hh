/**
 * @file
 * InvisiMem-far model: all memory replaced by smart memory [1].
 *
 * InvisiMem provides CIF *and* hides the memory-address and
 * bus-timing side channels.  The costs the paper attributes to it
 * (Section 7.1):
 *  - messages are encrypted twice (channel + payload);
 *  - read and write packets are forced to the same size;
 *  - dummy packets keep the memory bus at a constant rate.
 *
 * MACs are grouped by the smart memory into the same transaction, so
 * InvisiMem has *less* metadata traffic than CI, but the padding and
 * dummy traffic swamp that advantage.
 */

#ifndef TOLEO_SECMEM_INVISIMEM_HH
#define TOLEO_SECMEM_INVISIMEM_HH

#include "secmem/engine.hh"

namespace toleo {

class InvisiMemEngine : public ProtectionEngine
{
  public:
    /** Packet header + symmetric-size padding per access, bytes. */
    static constexpr std::uint64_t packetOverheadBytes = 48;
    /**
     * Constant-rate target as a fraction of aggregate channel
     * bandwidth; each epoch is padded up to this rate with dummy
     * packets.
     */
    static constexpr double dummyRateFraction = 0.30;

    explicit InvisiMemEngine(MemTopology &topo);

    MetaCost onRead(BlockNum blk) override;
    MetaCost onWriteback(BlockNum blk) override;

    /** Epoch hook: emit dummy packets up to the constant rate. */
    std::uint64_t padEpoch(double epoch_ns);

    bool confidentiality() const override { return true; }
    bool integrity() const override { return true; }
    bool freshness() const override { return true; }
    /** All-smart-memory at 28 TB is prohibitively expensive. */
    bool fullMemory() const override { return false; }

    /** Zeroes the dummy-byte count; the epoch's real bytes stay. */
    void resetMeasurement() override { dummyBytes_ = 0; }

    /** Dummy bytes padded since the last resetMeasurement(). */
    std::uint64_t dummyBytes() const { return dummyBytes_; }

  private:
    /** Real bytes this epoch (tracked for constant-rate padding). */
    std::uint64_t epochRealBytes_ = 0;
    std::uint64_t dummyBytes_ = 0;
};

} // namespace toleo

#endif // TOLEO_SECMEM_INVISIMEM_HH
