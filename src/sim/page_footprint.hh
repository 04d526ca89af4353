/**
 * @file
 * PageFootprint: the set of pages ever touched -- the simulated RSS
 * that Toleo sizes its statically mapped flat-entry array from
 * (Section 7.2).
 */

#ifndef TOLEO_SIM_PAGE_FOOTPRINT_HH
#define TOLEO_SIM_PAGE_FOOTPRINT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace toleo {

/**
 * Two-level page bitmap.  Leaves cover 32 K pages (128 MiB of
 * address space) and are keyed by leaf number in an insert-only
 * open-addressing table (linear probing over a Fibonacci hash) that
 * starts at 16 slots and doubles at 50% load.  Memory therefore grows
 * with the 128 MiB regions actually touched, not with the highest
 * page number: a full-system capture's kernel-half addresses cost a
 * leaf per touched region, like any other.  Insert is a short probe,
 * a bit test and a branch-free count update -- no per-page node, and
 * no allocation once the page's leaf exists.
 */
class PageFootprint
{
  public:
    void
    insert(PageNum page)
    {
        std::uint64_t &word =
            leafWords(page >> leafBits)[(page & leafMask) >> wordBits];
        const std::uint64_t bit =
            std::uint64_t{1} << (page & (wordSize - 1));
        count_ += (word & bit) == 0;
        word |= bit;
    }

    /** Number of distinct pages inserted, O(1). */
    std::uint64_t size() const { return count_; }

  private:
    /** log2(pages per leaf): 32 K pages = 128 MiB of address space. */
    static constexpr unsigned leafBits = 15;
    static constexpr std::uint64_t leafMask =
        (std::uint64_t{1} << leafBits) - 1;
    static constexpr unsigned wordBits = 6;
    static constexpr unsigned wordSize = 64;
    static constexpr std::size_t wordsPerLeaf =
        (std::size_t{1} << leafBits) / wordSize;

    struct Slot
    {
        std::uint64_t leaf = 0;
        /** The leaf's bitmap; null marks an empty slot. */
        std::unique_ptr<std::uint64_t[]> words;
    };

    /** Slot holding @p leaf, or the empty slot ending its probe run. */
    std::size_t
    findSlot(std::uint64_t leaf) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = static_cast<std::size_t>(
            (leaf * 0x9e3779b97f4a7c15ULL) >> slotShift_);
        while (slots_[i].words && slots_[i].leaf != leaf)
            i = (i + 1) & mask;
        return i;
    }

    /** Bitmap words of @p leaf, allocated all-zero on first touch. */
    std::uint64_t *
    leafWords(std::uint64_t leaf)
    {
        std::size_t i = findSlot(leaf);
        if (!slots_[i].words) {
            if (2 * (leaves_ + 1) > slots_.size()) {
                std::vector<Slot> old = std::move(slots_);
                slots_ = std::vector<Slot>(old.size() * 2);
                --slotShift_;
                for (Slot &s : old)
                    if (s.words)
                        slots_[findSlot(s.leaf)] = std::move(s);
                i = findSlot(leaf);
            }
            slots_[i].leaf = leaf;
            // make_unique value-initializes: the leaf starts all-zero.
            slots_[i].words =
                std::make_unique<std::uint64_t[]>(wordsPerLeaf);
            ++leaves_;
        }
        return slots_[i].words.get();
    }

    std::vector<Slot> slots_ = std::vector<Slot>(16);
    unsigned slotShift_ = 64 - 4;
    std::size_t leaves_ = 0;
    std::uint64_t count_ = 0;
};

} // namespace toleo

#endif // TOLEO_SIM_PAGE_FOOTPRINT_HH
