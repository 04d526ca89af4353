#include "workload/request_apps.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace toleo {

namespace {

/**
 * Shape of one request app.  Every request is: a few hot "parse" refs,
 * `probes` uniform-random probes into the table region, then `bursts`
 * contiguous block runs in the payload region (optionally Zipf-placed,
 * optionally written) with one hot accumulator write per block.
 */
struct RequestAppSpec
{
    /** Uniform-random probe region (hash / flow / index table). */
    std::uint64_t tableBytes = 2 * MiB;
    unsigned probesLo = 1;
    unsigned probesHi = 2;
    /** Streamed payload region (values / postings / vectors). */
    std::uint64_t payloadBytes = 8 * MiB;
    /** Payload bursts per request (values / terms / candidates). */
    unsigned burstsLo = 1;
    unsigned burstsHi = 1;
    /** Contiguous blocks per payload burst. */
    unsigned burstBlocksLo = 1;
    unsigned burstBlocksHi = 8;
    /** Zipf exponent for burst placement; 0 = uniform. */
    double payloadTheta = 0.0;
    /** Probability the request writes its payload (e.g. KVS SET). */
    double writeProb = 0.0;
    /** Hot scratch region (parse state, score/distance accumulators). */
    std::uint64_t hotBytes = 16 * KiB;
    /** Hot prologue refs per request (header parse, dispatch). */
    unsigned hotPrologue = 2;
    /** Hot accumulator writes per payload block. */
    unsigned hotPerBlock = 1;
    /** Mean instruction gap between refs (jittered +/-50%). */
    double meanGap = 8.0;
};

struct RequestAppDef
{
    WorkloadInfo info;
    RequestAppSpec spec;
};

/**
 * Plans one request at a time into an internal ref queue, flagging
 * the request's last reference, and replans when the queue runs dry.
 * The flags ride the stream, so RequestSource passes it through
 * untouched and the draws are the same with or without it.
 */
class RequestAppGen : public RequestShapedGen
{
  public:
    RequestAppGen(WorkloadInfo info, RequestAppSpec spec, unsigned core,
                  std::uint64_t seed)
        : RequestShapedGen(std::move(info)), spec_(spec),
          rng_(seed * 0x2545f4914f6cdd1dULL + core + 1)
    {
        // Each core owns a disjoint 1 TiB slice, carved into hot /
        // table / payload regions at fixed offsets (same convention
        // as MixWorkload).
        const Addr slice = (static_cast<Addr>(core) + 1) << 40;
        hotBase_ = slice;
        tableBase_ = slice + GiB;
        payloadBase_ = slice + 2 * GiB;
        tableBlocks_ =
            std::max<std::uint64_t>(1, spec_.tableBytes / blockSize);
        payloadBlocks_ =
            std::max<std::uint64_t>(1, spec_.payloadBytes / blockSize);
        hotBlocks_ =
            std::max<std::uint64_t>(1, spec_.hotBytes / blockSize);
        if (spec_.payloadTheta > 0.0)
            zipf_ = std::make_unique<ZipfSampler>(
                payloadBlocks_, spec_.payloadTheta, rng_.next());
        // Jitter bounds [0.5g, 1.5g]; specs are small compile-time
        // constants but clamp anyway before the float->unsigned cast.
        const double gap = std::min(
            std::max(0.0, spec_.meanGap), 1024.0);
        gapLo_ = static_cast<std::uint64_t>(std::max(0.0, gap * 0.5));
        gapHi_ = std::max(
            gapLo_, static_cast<std::uint64_t>(std::max(0.0, gap * 1.5)));
    }

    void
    nextBatch(MemRef *out, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = draw();
    }

  private:
    MemRef
    draw()
    {
        if (planPos_ >= plan_.size())
            planRequest();
        return plan_[planPos_++];
    }

    void
    push(Addr addr, bool write)
    {
        MemRef ref;
        ref.addr = addr;
        ref.isWrite = write;
        ref.instGap =
            static_cast<std::uint32_t>(rng_.nextRange(gapLo_, gapHi_));
        plan_.push_back(ref);
    }

    void
    pushHot(bool write)
    {
        push(hotBase_ + (hotCursor_ % hotBlocks_) * blockSize, write);
        ++hotCursor_;
    }

    void
    planRequest()
    {
        plan_.clear();
        planPos_ = 0;
        const bool wr = rng_.nextBool(spec_.writeProb);
        for (unsigned i = 0; i < spec_.hotPrologue; ++i)
            pushHot(false);
        const auto probes = static_cast<unsigned>(
            rng_.nextRange(spec_.probesLo, spec_.probesHi));
        for (unsigned p = 0; p < probes; ++p)
            push(tableBase_ + rng_.nextBounded(tableBlocks_) * blockSize,
                 false);
        const auto bursts = static_cast<unsigned>(
            rng_.nextRange(spec_.burstsLo, spec_.burstsHi));
        for (unsigned b = 0; b < bursts; ++b) {
            const std::uint64_t start =
                zipf_ ? scatterRank(zipf_->next(), payloadBlocks_)
                      : rng_.nextBounded(payloadBlocks_);
            const auto len = static_cast<unsigned>(rng_.nextRange(
                spec_.burstBlocksLo, spec_.burstBlocksHi));
            for (unsigned k = 0; k < len; ++k) {
                push(payloadBase_ +
                         ((start + k) % payloadBlocks_) * blockSize,
                     wr);
                for (unsigned h = 0; h < spec_.hotPerBlock; ++h)
                    pushHot(true);
            }
        }
        if (plan_.empty())
            pushHot(false); // degenerate spec: never emit 0-ref requests
        plan_.back().endsRequest = true;
    }

    RequestAppSpec spec_;
    Rng rng_;
    Addr hotBase_ = 0;
    Addr tableBase_ = 0;
    Addr payloadBase_ = 0;
    std::uint64_t tableBlocks_ = 1;
    std::uint64_t payloadBlocks_ = 1;
    std::uint64_t hotBlocks_ = 1;
    std::uint64_t hotCursor_ = 0;
    std::uint64_t gapLo_ = 0;
    std::uint64_t gapHi_ = 0;
    std::unique_ptr<ZipfSampler> zipf_;
    std::vector<MemRef> plan_;
    std::size_t planPos_ = 0;
};

WorkloadInfo
appInfo(const char *name, const RequestAppSpec &spec, double mlp)
{
    WorkloadInfo info;
    info.name = name;
    info.suite = "tina-rx";
    info.paperRssBytes = 0;  // not a paper (Table 2) workload
    info.paperLlcMpki = 0.0; // measured, not calibrated
    info.simFootprintBytes =
        spec.hotBytes + spec.tableBytes + spec.payloadBytes;
    info.mlp = mlp;
    return info;
}

const std::map<std::string, RequestAppDef> &
appTable()
{
    static const std::map<std::string, RequestAppDef> defs = [] {
        std::map<std::string, RequestAppDef> t;

        // KVS get/set: Zipf-popular keys, 1-2 hash probes, value
        // bursts up to 512 B, 30% SETs.
        RequestAppSpec kvs;
        kvs.tableBytes = 4 * MiB;
        kvs.probesLo = 1;
        kvs.probesHi = 2;
        kvs.payloadBytes = 8 * MiB;
        kvs.burstsLo = 1;
        kvs.burstsHi = 1;
        kvs.burstBlocksLo = 1;
        kvs.burstBlocksHi = 8;
        kvs.payloadTheta = 0.99;
        kvs.writeProb = 0.3;
        kvs.hotBytes = 16 * KiB;
        kvs.hotPrologue = 4;
        kvs.hotPerBlock = 1;
        kvs.meanGap = 6.0;
        t.emplace("kvs", RequestAppDef{appInfo("kvs", kvs, 2.5), kvs});

        // NAT: per-packet flow-table lookup + header rewrite; tiny
        // requests, uniform flows, almost always a write.
        RequestAppSpec nat;
        nat.tableBytes = 2 * MiB;
        nat.probesLo = 1;
        nat.probesHi = 2;
        nat.payloadBytes = 1 * MiB;
        nat.burstsLo = 1;
        nat.burstsHi = 1;
        nat.burstBlocksLo = 1;
        nat.burstBlocksHi = 2;
        nat.payloadTheta = 0.0;
        nat.writeProb = 0.9;
        nat.hotBytes = 8 * KiB;
        nat.hotPrologue = 2;
        nat.hotPerBlock = 1;
        nat.meanGap = 4.0;
        t.emplace("nat", RequestAppDef{appInfo("nat", nat, 2.0), nat});

        // BM25 ranking: several Zipf-popular postings-list scans per
        // query with score accumulation; long read-heavy requests.
        RequestAppSpec bm25;
        bm25.tableBytes = 1 * MiB;
        bm25.probesLo = 2;
        bm25.probesHi = 6;
        bm25.payloadBytes = 16 * MiB;
        bm25.burstsLo = 2;
        bm25.burstsHi = 6;
        bm25.burstBlocksLo = 8;
        bm25.burstBlocksHi = 32;
        bm25.payloadTheta = 1.1;
        bm25.writeProb = 0.0;
        bm25.hotBytes = 32 * KiB;
        bm25.hotPrologue = 4;
        bm25.hotPerBlock = 1;
        bm25.meanGap = 10.0;
        t.emplace("bm25",
                  RequestAppDef{appInfo("bm25", bm25, 8.0), bm25});

        // KNN: distance scans over uniformly-drawn 1 KiB candidate
        // vectors with a running-minimum accumulator.
        RequestAppSpec knn;
        knn.tableBytes = 512 * KiB;
        knn.probesLo = 1;
        knn.probesHi = 4;
        knn.payloadBytes = 32 * MiB;
        knn.burstsLo = 4;
        knn.burstsHi = 12;
        knn.burstBlocksLo = 16;
        knn.burstBlocksHi = 16;
        knn.payloadTheta = 0.0;
        knn.writeProb = 0.0;
        knn.hotBytes = 16 * KiB;
        knn.hotPrologue = 2;
        knn.hotPerBlock = 1;
        knn.meanGap = 12.0;
        t.emplace("knn", RequestAppDef{appInfo("knn", knn, 10.0), knn});

        return t;
    }();
    return defs;
}

} // namespace

const std::vector<std::string> &
requestAppWorkloads()
{
    static const std::vector<std::string> names = {"kvs", "nat", "bm25",
                                                   "knn"};
    return names;
}

std::unique_ptr<TraceGen>
makeRequestApp(const std::string &name, unsigned core,
               std::uint64_t seed)
{
    auto it = appTable().find(name);
    if (it == appTable().end())
        return nullptr;
    const auto &def = it->second;
    return std::make_unique<RequestAppGen>(def.info, def.spec, core,
                                           seed ^ 0x7ea15e77a11eULL);
}

bool
requestAppInfo(const std::string &name, WorkloadInfo &out)
{
    auto it = appTable().find(name);
    if (it == appTable().end())
        return false;
    out = it->second.info;
    return true;
}

} // namespace toleo
