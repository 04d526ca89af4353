#include "toleo/device.hh"

#include "common/logging.hh"

namespace toleo {

ToleoDevice::ToleoDevice(const ToleoDeviceConfig &cfg)
    : cfg_(cfg), store_(cfg.trip)
{
    if (flatArrayBytes() > cfg.capacityBytes)
        fatal("ToleoDevice: %llu B protected memory needs a flat array "
              "larger than the device capacity",
              static_cast<unsigned long long>(cfg.protectedBytes));
}

unsigned
ToleoDevice::addInitiator()
{
    initiators_.emplace_back();
    return static_cast<unsigned>(initiators_.size() - 1);
}

void
ToleoDevice::setActiveInitiator(unsigned id)
{
    if (id >= initiators_.size())
        fatal("ToleoDevice: initiator %u not registered (have %zu)",
              id, initiators_.size());
    active_ = id;
    activePageOff_ = id * initiatorPageStride;
    activeBlockOff_ = activePageOff_ * blocksPerPage;
}

void
ToleoDevice::beginInitiatorEpoch()
{
    for (Initiator &ini : initiators_)
        ini.epochReqs = 0;
}

void
ToleoDevice::rangePanic(PageNum page) const
{
    fatal("ToleoDevice: page 0x%llx of initiator %u overruns the "
          "per-initiator page stride (2^40) and would alias the "
          "next node's slice",
          static_cast<unsigned long long>(page), active_);
}

std::uint64_t
ToleoDevice::read(BlockNum blk)
{
    ++readReqs_;
    noteRequest();
    checkInitiatorRange(pageOfBlock(blk));
    return store_.stealth(blk + activeBlockOff_);
}

TripUpdateResult
ToleoDevice::update(BlockNum blk)
{
    ++updateReqs_;
    noteRequest();
    checkInitiatorRange(pageOfBlock(blk));
    auto res = store_.update(blk + activeBlockOff_);
    if (res.upgraded && spaceExhausted())
        ++spaceRejections_;
    return res;
}

void
ToleoDevice::reset(PageNum page)
{
    ++resetReqs_;
    noteRequest();
    checkInitiatorRange(page);
    store_.freePage(page + activePageOff_);
}

std::uint64_t
ToleoDevice::fullVersion(BlockNum blk) const
{
    return store_.fullVersion(blk + activeBlockOff_);
}

TripFormat
ToleoDevice::formatOf(PageNum page) const
{
    return store_.formatOf(page + activePageOff_);
}

std::uint64_t
ToleoDevice::flatArrayBytes() const
{
    return cfg_.protectedBytes / pageSize * flatEntryBytes;
}

std::uint64_t
ToleoDevice::dynamicCapacityBytes() const
{
    return cfg_.capacityBytes - flatArrayBytes();
}

bool
ToleoDevice::spaceExhausted() const
{
    return store_.dynamicBytes() >= dynamicCapacityBytes();
}

} // namespace toleo
