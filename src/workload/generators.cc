/**
 * @file
 * Definitions of the 12 paper workloads (Table 2) plus a few
 * microbenchmark patterns, expressed as MixWorkload stream tables.
 *
 * Region sizes are the per-core footprint of the scaled simulation
 * node (see sim/system.hh makeScaledConfig); paperRssBytes and
 * paperLlcMpki carry Table 2's values for side-by-side reporting.
 * Conventions:
 *  - hot streams model compute-local reuse and are sized to stay
 *    L2-resident (<= 48 KB);
 *  - streaming regions use 64 B (block) stride: one reference per
 *    cache block, the granularity the memory system sees;
 *  - graph vertex accesses are Zipf-distributed (power-law degrees),
 *    which is also what gives graph workloads their page-level
 *    stealth-cache reuse;
 *  - KV stores draw pages from a Gaussian (memtier's key
 *    distribution, Section 7), the source of their poor stealth
 *    locality.
 *
 * Weights were calibrated against Table 2 MPKI with the scaled node
 * (see bench/paper's Table 2).
 */

#include "workload/workload.hh"

#include <map>

#include "common/logging.hh"
#include "workload/mix.hh"
#include "workload/request_apps.hh"

namespace toleo {

namespace {

struct WorkloadDef
{
    WorkloadInfo info;
    MixSpec mix;
};

std::map<std::string, WorkloadDef>
buildTable()
{
    std::map<std::string, WorkloadDef> t;

    auto hot = [](std::uint64_t bytes, double w) {
        StreamSpec s;
        s.pattern = Pattern::HotSeq;
        s.regionBytes = bytes;
        s.weight = w;
        return s;
    };
    auto stream = [](std::uint64_t bytes, double w, double wr) {
        StreamSpec s;
        s.pattern = Pattern::StreamSeq;
        s.regionBytes = bytes;
        s.weight = w;
        s.writeProb = wr;
        s.strideBytes = 64;
        return s;
    };
    auto random = [](std::uint64_t bytes, double w, double wr) {
        StreamSpec s;
        s.pattern = Pattern::UniformRandom;
        s.regionBytes = bytes;
        s.weight = w;
        s.writeProb = wr;
        return s;
    };
    auto zipf = [](std::uint64_t bytes, double w, double wr,
                   double theta) {
        StreamSpec s;
        s.pattern = Pattern::Zipf;
        s.regionBytes = bytes;
        s.weight = w;
        s.writeProb = wr;
        s.theta = theta;
        return s;
    };
    auto zipfTree = [](std::uint64_t bytes, double w, double wr,
                       double theta) {
        StreamSpec s;
        s.pattern = Pattern::Zipf;
        s.regionBytes = bytes;
        s.weight = w;
        s.writeProb = wr;
        s.theta = theta;
        s.clustered = true; // tree/index layout: hot nodes contiguous
        return s;
    };
    auto gauss = [](std::uint64_t bytes, double w, double wr,
                    double sigma, unsigned burst) {
        StreamSpec s;
        s.pattern = Pattern::GaussPage;
        s.regionBytes = bytes;
        s.weight = w;
        s.writeProb = wr;
        s.sigmaPages = sigma;
        s.burstBlocks = burst;
        return s;
    };
    auto pagelocal = [](std::uint64_t bytes, double w, double wr,
                        unsigned k, double turnover,
                        unsigned burst = 1) {
        StreamSpec s;
        s.pattern = Pattern::PageLocalRandom;
        s.regionBytes = bytes;
        s.weight = w;
        s.writeProb = wr;
        s.activePages = k;
        s.pageTurnover = turnover;
        s.burstBlocks = burst;
        return s;
    };


    // --- GenomicsBench ---------------------------------------------------
    // bsw: banded Smith-Waterman, 2D DP.  Hot band tile + streaming
    // input + sequential DP-row writes (uniform page writes -> flat).
    t["bsw"] = {
        {"bsw", "GenomicsBench", gibBytes(11.7), 1.21,
         800 * KiB, 6.0},
        {{hot(24 * KiB, 18.0),
          stream(4 * MiB, 0.1, 0.0),
          stream(4 * MiB, 0.1, 1.0)},
         8.0},
    };

    // chain: 1D DP over anchors; less memory-intensive than bsw.
    t["chain"] = {
        {"chain", "GenomicsBench", gibBytes(11.75), 0.49,
         512 * KiB, 6.0},
        {{hot(24 * KiB, 30.0),
          stream(4 * MiB, 0.1, 0.0),
          stream(4 * MiB, 0.1, 1.0)},
         12.0},
    };

    // dbg: De Bruijn graph construction -- streaming genome reads
    // feed hash-table inserts (write-once, near-resident table) and
    // zipf-hot probes.
    t["dbg"] = {
        {"dbg", "GenomicsBench", gibBytes(9.86), 0.47,
         3 * MiB, 4.0},
        {{hot(24 * KiB, 200.0),
          stream(4 * MiB, 0.5, 0.0),
          pagelocal(2 * MiB, 0.4, 0.35, 8, 0.02),
          zipf(128 * KiB, 0.6, 0.0, 1.1)},
         8.0},
    };

    // fmi: FM-index search -- dependent index-node lookups (low MLP)
    // over a hot index, a modest input stream, and concentrated
    // repeated node updates (drives the paper-worst uneven share).
    t["fmi"] = {
        {"fmi", "GenomicsBench", gibBytes(12.05), 0.45,
         640 * KiB, 1.5},
        {{hot(24 * KiB, 170.0),
          zipfTree(256 * KiB, 3.0, 0.0, 1.2),
          stream(1 * MiB, 0.3, 0.0),
          pagelocal(1 * MiB, 0.5, 0.9, 6, 0.1)},
         8.0},
    };

    // pileup: position-count hash updates; mostly write-once.
    t["pileup"] = {
        {"pileup", "GenomicsBench", gibBytes(10.85), 0.66,
         2560 * KiB, 4.0},
        {{hot(24 * KiB, 160.0),
          stream(4 * MiB, 0.55, 0.0),
          zipf(512 * KiB, 1.5, 0.2, 1.0),
          pagelocal(1 * MiB, 0.3, 0.5, 8, 0.03)},
         8.0},
    };

    // --- GAP graph suite --------------------------------------------------
    // bfs: frontier queue (hot) + edge stream + visited/parent bit
    // updates over a near-resident vertex region.
    t["bfs"] = {
        {"bfs", "GAP", gibBytes(12.9), 22.57,
         2764 * KiB, 8.0},
        {{hot(24 * KiB, 6.0),
          stream(384 * KiB, 0.55, 0.0),
          pagelocal(1 * MiB, 0.25, 0.05, 12, 0.12, 4)},
         3.0},
    };

    // pr: pull-style PageRank -- the edge stream dominates misses
    // (as in GAP's CSR layout); source scores are power-law hot and
    // near-resident; destination scores are written sequentially.
    t["pr"] = {
        {"pr", "GAP", gibBytes(20.8), 133.98,
         2 * MiB, 12.0},
        {{hot(24 * KiB, 1.9),
          stream(8 * MiB, 1.35, 0.0),
          zipfTree(64 * KiB, 1.0, 0.0, 0.8),
          stream(512 * KiB, 0.0125, 1.0),
          pagelocal(1 * MiB, 0.04, 1.0, 4, 0.1)},
         2.0},
    };

    // sssp: delta-stepping -- hot bucket + edge stream + repeated
    // distance relaxations over a near-resident array.
    t["sssp"] = {
        {"sssp", "GAP", gibBytes(24.57), 2.41,
         3277 * KiB, 6.0},
        {{hot(24 * KiB, 40.0),
          stream(6 * MiB, 0.5, 0.0),
          pagelocal(2 * MiB, 0.45, 0.45, 12, 0.05)},
         6.0},
    };

    // --- Generative AI ----------------------------------------------------
    // llama2-gen: token generation -- weight streaming dominates;
    // activations rewritten uniformly per token (L2-resident buffer);
    // KV-cache appends.
    t["llama2-gen"] = {
        {"llama2-gen", "LLM", gibBytes(25.8), 57.96,
         2 * MiB, 16.0},
        {{stream(8 * MiB, 0.28, 0.0),
          hot(24 * KiB, 1.6),
          stream(16 * KiB, 0.4, 1.0),
          stream(4 * MiB, 0.0125, 1.0)},
         1.0},
    };

    // --- In-memory databases ----------------------------------------------
    // redis: memtier all-write Gaussian key popularity; random page
    // accesses give the paper's poor stealth-cache hit rate.
    t["redis"] = {
        {"redis", "DB", gibBytes(11.8), 0.76,
         9 * MiB, 2.0},
        {{hot(24 * KiB, 9.0),
          gauss(4 * MiB, 2.0, 0.7, 6.0, 2),
          stream(4 * MiB, 0.05, 0.0)},
         20.0},
    };

    // memcached: same shape, higher memory intensity, larger values.
    t["memcached"] = {
        {"memcached", "DB", gibBytes(11.8), 3.14,
         12 * MiB, 2.5},
        {{hot(24 * KiB, 5.0),
          gauss(4 * MiB, 0.6, 0.7, 9.0, 4),
          stream(4 * MiB, 0.04, 0.0)},
         8.0},
    };

    // hyrise: TPC-C -- scans, row appends (write-once), zipf-hot
    // index updates at commit (repeated -> a few uneven pages).
    t["hyrise"] = {
        {"hyrise", "DB", gibBytes(6.96), 3.14,
         1536 * KiB, 4.0},
        {{hot(24 * KiB, 20.0),
          stream(2 * MiB, 0.3, 0.0),
          stream(1 * MiB, 0.04, 1.0),
          zipfTree(192 * KiB, 1.0, 0.3, 1.0),
          zipf(256 * KiB, 0.08, 0.7, 1.0)},
         6.0},
    };

    // --- Microbenchmark patterns (tests and ablations) ---------------------
    t["micro-seq-write"] = {
        {"micro-seq-write", "micro", 1 * GiB, 0.0, 4 * MiB, 8.0},
        {{stream(4 * MiB, 1.0, 1.0)}, 4.0},
    };
    t["micro-seq-read"] = {
        {"micro-seq-read", "micro", 1 * GiB, 0.0, 4 * MiB, 8.0},
        {{stream(4 * MiB, 1.0, 0.0)}, 4.0},
    };
    t["micro-rand-write"] = {
        {"micro-rand-write", "micro", 1 * GiB, 0.0, 4 * MiB, 2.0},
        {{random(4 * MiB, 1.0, 1.0)}, 4.0},
    };
    t["micro-rand-read"] = {
        {"micro-rand-read", "micro", 1 * GiB, 0.0, 4 * MiB, 2.0},
        {{random(4 * MiB, 1.0, 0.0)}, 4.0},
    };

    return t;
}

const std::map<std::string, WorkloadDef> &
table()
{
    static const std::map<std::string, WorkloadDef> t = buildTable();
    return t;
}

} // namespace

const std::vector<std::string> &
paperWorkloads()
{
    static const std::vector<std::string> names = {
        "bsw", "chain", "dbg", "fmi", "pileup",
        "bfs", "pr", "sssp",
        "llama2-gen",
        "redis", "memcached", "hyrise",
    };
    return names;
}

std::unique_ptr<TraceGen>
makeWorkload(const std::string &name, unsigned core, std::uint64_t seed)
{
    // Request-shaped datacenter apps live in their own registry so
    // the paper grid above stays byte-pinned.
    if (auto app = makeRequestApp(name, core, seed))
        return app;
    auto it = table().find(name);
    if (it == table().end())
        fatal("unknown workload '%s'", name.c_str());
    const auto &def = it->second;
    return std::make_unique<MixWorkload>(def.info, def.mix, core,
                                         seed ^ 0xabcdef12345ULL);
}

WorkloadInfo
workloadInfo(const std::string &name)
{
    WorkloadInfo app;
    if (requestAppInfo(name, app))
        return app;
    auto it = table().find(name);
    if (it == table().end())
        fatal("unknown workload '%s'", name.c_str());
    return it->second.info;
}

} // namespace toleo
