#include "secmem/invisimem.hh"

#include <algorithm>

#include "crypto/timing.hh"

namespace toleo {

InvisiMemEngine::InvisiMemEngine(MemTopology &topo)
    : ProtectionEngine("InvisiMem", topo)
{}

MetaCost
InvisiMemEngine::onRead(BlockNum blk)
{
    MetaCost cost;
    const PageNum page = pageOfBlock(blk);

    // Request packet padded to write size + double encryption of the
    // response payload.  (The MAC rides in the same packet.)
    cost.metaBytes += packetOverheadBytes;
    topo_.addDataTraffic(page, packetOverheadBytes);
    epochRealBytes_ += blockSize + packetOverheadBytes;

    // Double encryption on both the request and response path, plus
    // packet (de)framing at each endpoint.
    cost.latencyNs += 2.0 * cyclesToNs(aesLatency) +
                      2.0 * cyclesToNs(macLatency) +
                      10.0;
    return cost;
}

MetaCost
InvisiMemEngine::onWriteback(BlockNum blk)
{
    MetaCost cost;
    const PageNum page = pageOfBlock(blk);

    // Write acknowledgement padded to read-response size.
    cost.metaBytes += packetOverheadBytes;
    topo_.addDataTraffic(page, packetOverheadBytes);
    epochRealBytes_ += blockSize + packetOverheadBytes;
    return cost;
}

std::uint64_t
InvisiMemEngine::padEpoch(double epoch_ns)
{
    // Aggregate bandwidth of the node's data channels.
    const double agg_gbps =
        topo_.numDdrChannels() * topo_.config().ddrBandwidthGBps +
        topo_.config().cxlPoolBandwidthGBps;
    // A negative epoch length must clamp to zero padding, not hit
    // the float->unsigned cast as UB.
    const auto target = static_cast<std::uint64_t>(
        std::max(0.0, dummyRateFraction * agg_gbps * epoch_ns));

    std::uint64_t pad = 0;
    if (epochRealBytes_ < target)
        pad = target - epochRealBytes_;
    epochRealBytes_ = 0;

    if (pad > 0) {
        // Spread dummy traffic across pages so every channel gets a
        // share of the constant-rate padding.
        const unsigned shares = 16;
        const std::uint64_t chunk = pad / shares;
        for (unsigned i = 0; i < shares; ++i)
            topo_.addDataTraffic(static_cast<PageNum>(i) * 977 + 13,
                                 chunk);
        dummyBytes_ += pad;
    }
    return pad;
}

} // namespace toleo
