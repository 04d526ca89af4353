/**
 * @file
 * Functional end-to-end model of a Toleo-protected memory.
 *
 * This is the *behavioural* counterpart of the timing model: data is
 * really AES-XTS encrypted under the (UV ‖ stealth, address) tweak,
 * really MAC'd, and versions really live in a ToleoDevice.  The split
 * is faithful to Section 4.2: the 37-bit UV is stored in untrusted
 * conventional memory (in the MAC block) and is adversary-visible and
 * replayable; the 27-bit stealth version lives only in the trusted
 * device.  A read composes version = UV(from memory) ‖ stealth(from
 * Toleo) and verifies the MAC against it.
 *
 * An Adversary view exposes exactly what the threat model grants an
 * attacker -- ciphertext, MAC, UV -- and lets tests mount replay and
 * tampering attacks to demonstrate the paper's security claims
 * (Section 6):
 *
 *  - replaying an old (ciphertext, MAC, UV) fails unless the stealth
 *    version happens to match (probability 2^-27);
 *  - tampering with ciphertext or MAC fails the integrity check;
 *  - freeing a page scrambles it (reads of old contents fail).
 *
 * A failed check trips the kill switch: the enclave is destroyed and
 * all further accesses refuse service (Section 2.1).
 */

#ifndef TOLEO_TOLEO_SECURE_MEMORY_HH
#define TOLEO_TOLEO_SECURE_MEMORY_HH

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "crypto/modes.hh"
#include "toleo/device.hh"

namespace toleo {

class SecureMemory
{
  public:
    /** One block as the adversary sees it in untrusted memory. */
    struct UntrustedBlock
    {
        Bytes cipher;
        std::uint64_t mac = 0;
        /** 37-bit upper version (rides in the MAC block). */
        std::uint64_t uv = 0;
    };

    SecureMemory(ToleoDevice &device, const AesKey &dataKey,
                 const AesKey &tweakKey, const AesKey &macKey);

    /** Write one 64 B block (increments its version). */
    void write(Addr addr, const Bytes &plain);

    /**
     * Read one block: compose UV (untrusted memory) with the stealth
     * version (trusted device), verify the MAC, then decrypt.
     * Returns nullopt and trips the kill switch on any integrity or
     * freshness failure.
     */
    std::optional<Bytes> read(Addr addr);

    /** OS frees/remaps a page: version reset scrambles contents. */
    void freePage(PageNum page);

    bool killed() const { return killed_; }

    /** @name Adversary interface (untrusted-memory access). */
    /// @{
    UntrustedBlock snoop(Addr addr) const;
    void inject(Addr addr, const UntrustedBlock &blk);
    void flipCipherBit(Addr addr, unsigned bit);
    /// @}

    ToleoDevice &device() { return device_; }

  private:
    ToleoDevice &device_;
    AesXts xts_;
    Mac56 mac_;
    std::unordered_map<BlockNum, UntrustedBlock> dram_;
    /**
     * Host-transient bookkeeping: the full version each block was
     * last encrypted under.  Real hardware reconstructs this during
     * the re-encryption pass that accompanies a UV_UPDATE; it is not
     * adversary-visible state.
     */
    std::unordered_map<BlockNum, std::uint64_t> encVersion_;
    bool killed_ = false;

    unsigned stealthBits() const;
    std::uint64_t macFor(const UntrustedBlock &b, Addr addr,
                         std::uint64_t version) const;
    void reencryptPage(PageNum page, BlockNum skip);
};

} // namespace toleo

#endif // TOLEO_TOLEO_SECURE_MEMORY_HH
