/**
 * @file
 * Tests for the cache-only long-run Trip analyzer (the Figure 10-12 /
 * Table 4 methodology) and the qualitative orderings the paper's
 * Section 7.2 reports.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/trip_analysis.hh"
#include "workload/workload.hh"

using namespace toleo;

namespace {

TripAnalysisResult
quick(const std::string &wl, std::uint64_t refs = 300000)
{
    TripAnalysisConfig cfg;
    cfg.workload = wl;
    cfg.refsPerCore = refs;
    return runTripAnalysis(cfg);
}

} // namespace

TEST(TripAnalysis, FractionsSumToOne)
{
    const auto u = quick("pr").usage;
    EXPECT_NEAR(u.share(u.flatPages) + u.share(u.unevenPages) +
                    u.share(u.fullPages),
                1.0, 1e-9);
    EXPECT_EQ(u.flatPages + u.unevenPages + u.fullPages, u.rssPages);
}

TEST(TripAnalysis, Deterministic)
{
    const auto a = quick("bfs", 100000);
    const auto b = quick("bfs", 100000);
    EXPECT_EQ(a.usage.unevenPages, b.usage.unevenPages);
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.usage.rssPages, b.usage.rssPages);
}

TEST(TripAnalysis, DpWorkloadsStayFlat)
{
    for (const char *wl : {"bsw", "chain"}) {
        const auto u = quick(wl).usage;
        EXPECT_GT(u.share(u.flatPages), 0.96) << wl;
    }
}

TEST(TripAnalysis, KvStoresAreMostlyFlatOverRss)
{
    for (const char *wl : {"redis", "memcached"}) {
        const auto u = quick(wl).usage;
        EXPECT_GT(u.share(u.flatPages), 0.9) << wl;
    }
}

TEST(TripAnalysis, FmiHasWorstVersionLocality)
{
    const auto unevenShare = [](const std::string &wl) {
        const auto u = quick(wl).usage;
        return u.share(u.unevenPages);
    };
    const double fmi = unevenShare("fmi");
    for (const char *wl : {"bsw", "chain", "dbg", "pileup", "redis",
                           "memcached", "hyrise", "llama2-gen"})
        EXPECT_GT(fmi, unevenShare(wl)) << wl;
}

TEST(TripAnalysis, GraphsShowUnevenPages)
{
    // Short windows only begin the drift; the bench runs 2M refs per
    // core where graphs reach the paper's 10-30% band.
    for (const char *wl : {"pr", "sssp", "bfs"}) {
        const auto u = quick(wl).usage;
        EXPECT_GT(u.share(u.unevenPages), 0.01) << wl;
        EXPECT_LT(u.share(u.unevenPages), 0.5) << wl;
    }
}

TEST(TripAnalysis, AvgEntrySizeBounded)
{
    // Table 4: average entry must lie between pure-flat (12 B) and
    // flat+uneven (68 B) for every workload.
    for (const auto &wl : paperWorkloads()) {
        const auto u = quick(wl, 150000).usage;
        EXPECT_GE(u.avgEntryBytesPerPage, 12.0) << wl;
        EXPECT_LT(u.avgEntryBytesPerPage, 68.0) << wl;
    }
}

TEST(TripAnalysis, UsagePerTbMatchesArithmetic)
{
    const auto u = quick("pr").usage;
    // Flat part is footprint-independent: 1e12/4096 * 12 B.
    EXPECT_NEAR(u.flatGbPerTb, 1e12 / 4096 * 12 / 1e9, 1e-9);
    // Uneven part follows the measured fraction.
    EXPECT_NEAR(u.unevenGbPerTb,
                1e12 / 4096 * u.share(u.unevenPages) * 56 / 1e9, 1e-6);
}

TEST(TripAnalysis, TimelineIsMonotone)
{
    const auto r = quick("llama2-gen");
    ASSERT_GT(r.timeline.size(), 8u);
    for (std::size_t i = 1; i < r.timeline.size(); ++i)
        EXPECT_GE(r.timeline[i].second, r.timeline[i - 1].second);
}

TEST(TripAnalysis, LargerFilterCacheCoalescesMoreWrites)
{
    TripAnalysisConfig small;
    small.workload = "fmi";
    small.refsPerCore = 200000;
    small.cacheBytes = 128 * KiB;
    TripAnalysisConfig big = small;
    big.cacheBytes = 4 * MiB;
    const auto rs = runTripAnalysis(small);
    const auto rb = runTripAnalysis(big);
    EXPECT_GT(rs.updates, rb.updates);
}

TEST(TripAnalysis, RssNeverBelowTouchedPages)
{
    for (const auto &wl : paperWorkloads()) {
        const auto r = quick(wl, 100000);
        const auto declared =
            workloadInfo(wl).simFootprintBytes / pageSize * 8;
        EXPECT_GE(r.usage.rssPages, declared) << wl;
    }
}

#ifdef TOLEO_TRIP_GOLDEN

TEST(TripGolden, PaperWorkloadsMatchCommittedRecord)
{
    // Pins every number bench/paper's Fig 10-12 / Table 4 sections
    // print from, for all 12 paper workloads at quick()'s
    // 300k-refs/core window: RSS pages, pages by format, the Table 4
    // average, the Fig 11 per-TB split, store updates/resets and the
    // Fig 12 timeline.
    // After an *intended* change, regenerate with
    //
    //   TOLEO_UPDATE_GOLDEN=1 ./tests/test_trip_analysis
    //       --gtest_filter=TripGolden.*
    //
    // and commit the refreshed tests/data/golden_trip12.json.
    Json doc = Json::array();
    for (const auto &wl : paperWorkloads()) {
        const auto r = quick(wl);
        const TripStore::Usage &u = r.usage;
        Json j = Json::object();
        j["workload"] = wl;
        j["rssPages"] = u.rssPages;
        j["flatPages"] = u.flatPages;
        j["unevenPages"] = u.unevenPages;
        j["fullPages"] = u.fullPages;
        j["avgEntryBytesPerPage"] = u.avgEntryBytesPerPage;
        j["flatGbPerTb"] = u.flatGbPerTb;
        j["unevenGbPerTb"] = u.unevenGbPerTb;
        j["fullGbPerTb"] = u.fullGbPerTb;
        j["updates"] = r.updates;
        j["resets"] = r.resets;
        Json timeline = Json::array();
        for (const auto &sample : r.timeline) {
            Json point = Json::array();
            point.push_back(sample.first);
            point.push_back(sample.second);
            timeline.push_back(std::move(point));
        }
        j["timeline"] = std::move(timeline);
        doc.push_back(std::move(j));
    }
    const std::string got = doc.dump(2) + "\n";

    // Golden-regeneration entry point, never read during a normal
    // test run.  toleo-lint: allow(nondeterminism)
    if (const char *update = std::getenv("TOLEO_UPDATE_GOLDEN");
        update && *update) {
        std::ofstream out(TOLEO_TRIP_GOLDEN,
                          std::ios::binary | std::ios::trunc);
        out << got;
        ASSERT_TRUE(out.good()) << "cannot write " << TOLEO_TRIP_GOLDEN;
    }

    std::ifstream in(TOLEO_TRIP_GOLDEN, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden fixture "
                           << TOLEO_TRIP_GOLDEN
                           << " (regenerate as described above)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "cache-only Trip analysis drifted from the committed golden "
        << TOLEO_TRIP_GOLDEN;
}

#endif // TOLEO_TRIP_GOLDEN
