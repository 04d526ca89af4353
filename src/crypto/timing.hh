/**
 * @file
 * Timing parameters of the memory-protection crypto engines.
 *
 * Table 3: "AES 40 cycle latency, 1 per cycle throughput".  The
 * InvisiMem configuration encrypts messages twice (Section 7.1).
 */

#ifndef TOLEO_CRYPTO_TIMING_HH
#define TOLEO_CRYPTO_TIMING_HH

#include "common/types.hh"

namespace toleo {

/** Latency of one AES operation through the pipelined engine. */
constexpr Cycles aesLatency = 40;
/** MAC computation latency (one extra AES pass over the block). */
constexpr Cycles macLatency = 40;

} // namespace toleo

#endif // TOLEO_CRYPTO_TIMING_HH
