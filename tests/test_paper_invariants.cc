/**
 * @file
 * Parameterized invariant sweep across all 12 paper workloads: every
 * property here must hold for *every* benchmark, under quick 4-core
 * runs.  These are the structural guarantees the paper's evaluation
 * relies on, independent of calibration.
 */

#include <gtest/gtest.h>

#include "sim/system.hh"
#include "sim/trip_analysis.hh"

using namespace toleo;

class WorkloadInvariants
    : public ::testing::TestWithParam<std::string>
{
  protected:
    SimStats
    run(EngineKind kind)
    {
        System sys(makeScaledConfig(GetParam(), kind, 4));
        return sys.run(10000, 20000);
    }
};

TEST_P(WorkloadInvariants, ToleoNeverLosesGuarantees)
{
    System sys(makeScaledConfig(GetParam(), EngineKind::Toleo, 4));
    EXPECT_TRUE(sys.engine().confidentiality());
    EXPECT_TRUE(sys.engine().integrity());
    EXPECT_TRUE(sys.engine().freshness());
    EXPECT_TRUE(sys.engine().fullMemory());
}

TEST_P(WorkloadInvariants, RatesAreProbabilities)
{
    const auto st = run(EngineKind::Toleo);
    EXPECT_GE(st.stealthCacheHitRate, 0.0);
    EXPECT_LE(st.stealthCacheHitRate, 1.0);
    EXPECT_GE(st.macCacheHitRate, 0.0);
    EXPECT_LE(st.macCacheHitRate, 1.0);
}

TEST_P(WorkloadInvariants, LatencyDecomposes)
{
    const auto st = run(EngineKind::Toleo);
    EXPECT_NEAR(st.avgReadLatencyNs,
                st.avgDramLatencyNs + st.avgMetaLatencyNs, 1e-6);
    EXPECT_GE(st.avgDramLatencyNs, 30.0);
}

TEST_P(WorkloadInvariants, ProtectionNeverSpeedsUp)
{
    const auto np = run(EngineKind::NoProtect);
    const auto tol = run(EngineKind::Toleo);
    EXPECT_GE(tol.execSeconds, np.execSeconds * 0.999);
    // NoProtect must not carry metadata traffic.
    EXPECT_DOUBLE_EQ(np.macBpi, 0.0);
    EXPECT_DOUBLE_EQ(np.stealthBpi, 0.0);
}

TEST_P(WorkloadInvariants, MpkiIndependentOfEngine)
{
    // The protection engine must not perturb the workload itself.
    const auto np = run(EngineKind::NoProtect);
    const auto ci = run(EngineKind::CI);
    EXPECT_NEAR(np.llcMpki, ci.llcMpki, 1e-9);
}

TEST_P(WorkloadInvariants, TripFractionsConsistent)
{
    TripAnalysisConfig cfg;
    cfg.workload = GetParam();
    cfg.cores = 4;
    cfg.refsPerCore = 100000;
    const auto u = runTripAnalysis(cfg).usage;
    EXPECT_EQ(u.flatPages + u.unevenPages + u.fullPages, u.rssPages);
    EXPECT_GE(u.avgEntryBytesPerPage,
              static_cast<double>(flatEntryBytes));
}

TEST_P(WorkloadInvariants, VersionsAdvanceUnderWriteback)
{
    System sys(makeScaledConfig(GetParam(), EngineKind::Toleo, 4));
    auto st = sys.run(10000, 20000);
    // Any workload that writes must advance versions in the device.
    // The braces matter: gtest's EXPECT_* macros expand to an
    // if/else, which a brace-less enclosing if turns into
    // -Wdangling-else.
    if (st.llcWritebacks > 0) {
        EXPECT_GT(sys.device()->store().updates(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaperWorkloads, WorkloadInvariants,
    ::testing::ValuesIn(paperWorkloads()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });
