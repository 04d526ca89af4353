/**
 * @file
 * Version-number definitions (Section 4.2).
 *
 * Toleo uses a 64-bit full version per cache block, split into:
 *  - a 37-bit upper version (UV), shared per page and stored in the
 *    spare space of MAC blocks in conventional memory;
 *  - a 27-bit stealth version stored confidentially in the Toleo
 *    device.
 *
 * Stealth versions are initialized to a random value, increment
 * monotonically modulo 2^27, and are reset (re-randomized, UV++) with
 * probability 2^-20 on each increment of the page's leading version.
 */

#ifndef TOLEO_TOLEO_VERSION_HH
#define TOLEO_TOLEO_VERSION_HH

#include <cstdint>

namespace toleo {

/** Tunable width/probability parameters of the version scheme. */
struct TripConfig
{
    /** Stealth version width, bits (27 in the paper). */
    unsigned stealthBits = 27;
    /** Upper-version width, bits (37 in the paper). */
    unsigned uvBits = 37;
    /** Reset probability is 2^-resetLog2 per leading increment. */
    unsigned resetLog2 = 20;
    /** Seed for the device RNG (D-RaNGe stand-in). */
    std::uint64_t seed = 0x70133e0;
};

/** Page-level stealth representation (Figure 3). */
enum class TripFormat : std::uint8_t { Flat = 0, Uneven = 1, Full = 2 };

/** Byte sizes of the Trip representations (Table 4). */
constexpr std::uint64_t flatEntryBytes = 12;
constexpr std::uint64_t unevenEntryBytes = 56;
/** 64 x 27-bit uncompressed stealth list. */
constexpr std::uint64_t fullEntryBytes = 216;
/** A full entry occupies four 56 B overflow blocks (Figure 5). */
constexpr std::uint64_t fullEntryAllocBytes = 224;

/** Compose the 64-bit full version from UV and stealth parts. */
constexpr std::uint64_t
composeVersion(std::uint64_t uv, std::uint64_t stealth,
               unsigned stealth_bits)
{
    return (uv << stealth_bits) | stealth;
}

const char *tripFormatName(TripFormat fmt);

} // namespace toleo

#endif // TOLEO_TOLEO_VERSION_HH
