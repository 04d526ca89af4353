/**
 * @file
 * Fundamental types and memory-geometry constants shared by every
 * module in the Toleo reproduction.
 *
 * The geometry mirrors the paper: 64 B cache blocks, 4 KB pages,
 * hence 64 cache blocks per page (Section 4.3).
 */

#ifndef TOLEO_COMMON_TYPES_HH
#define TOLEO_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>

namespace toleo {

/** Physical or virtual byte address. */
using Addr = std::uint64_t;

/** Physical page number (address >> pageBits). */
using PageNum = std::uint64_t;

/** Cache-block number (address >> blockBits). */
using BlockNum = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycles = std::uint64_t;

/** Simulation time in picoseconds (used by the memory models). */
using Tick = std::uint64_t;

/** Simulated core clock, GHz (Table 3).  Core time and every
 *  engine latency given in cycles convert at this one rate. */
constexpr double coreClockGhz = 2.25;

/** Size of one cache block in bytes. */
constexpr std::uint64_t blockSize = 64;
/** log2(blockSize). */
constexpr unsigned blockBits = 6;

/** Size of one page in bytes. */
constexpr std::uint64_t pageSize = 4096;
/** log2(pageSize). */
constexpr unsigned pageBits = 12;

/** Cache blocks per page: 64 (Section 4.3). */
constexpr unsigned blocksPerPage = pageSize / blockSize;

/** Extract the block number of a byte address. */
constexpr BlockNum
blockOf(Addr addr)
{
    return addr >> blockBits;
}

/** Extract the page number of a byte address. */
constexpr PageNum
pageOf(Addr addr)
{
    return addr >> pageBits;
}

/** Page number containing a given cache block. */
constexpr PageNum
pageOfBlock(BlockNum blk)
{
    return blk >> (pageBits - blockBits);
}

/** Index of a cache block within its page: 0..63. */
constexpr unsigned
blockIndexInPage(BlockNum blk)
{
    return static_cast<unsigned>(blk & (blocksPerPage - 1));
}

/** Align a byte address down to its cache-block base. */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~(blockSize - 1);
}

/** Convenience literals for capacities. */
constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * KiB;
constexpr std::uint64_t GiB = 1024 * MiB;
constexpr std::uint64_t TiB = 1024 * GiB;

/**
 * Fractional capacity in GiB, converted with an explicit clamp: the
 * float->unsigned conversion is UB for negative or over-range values
 * (the PR 4 bug class; toleo_lint's unclamped-cast rule), so table
 * entries like "11.7 GiB" route through here instead of a bare cast.
 */
constexpr std::uint64_t
gibBytes(double gib)
{
    // 2^53 GiB already exceeds the exactly-representable double
    // range; everything the tables use is far below either bound.
    const double bytes = gib < 0.0 ? 0.0 : gib * 0x1p30;
    const double capped = bytes < 0x1p62 ? bytes : 0x1p62;
    return static_cast<std::uint64_t>(capped);
}

} // namespace toleo

#endif // TOLEO_COMMON_TYPES_HH
