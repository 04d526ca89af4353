/**
 * @file
 * Domain example: confidential LLM inference (the paper's headline
 * motivation -- tera-scale models need tera-scale *fresh* memory).
 *
 * Runs the llama2-gen workload through the timing simulator under
 * four protection configurations and reports what freshness costs on
 * top of confidentiality+integrity -- the paper's core claim is that
 * this line is ~1-2%.
 *
 *     ./build/examples/llm_inference
 */

#include <cstdio>

#include "sim/system.hh"

using namespace toleo;

namespace {

SimStats
runConfig(EngineKind kind)
{
    // Scaled-down node; all reported rates are intensive.
    SystemConfig cfg =
        makeScaledConfig("llama2-gen", kind, 8);
    System sys(cfg);
    return sys.run(20000, 40000);
}

} // namespace

int
main()
{
    std::printf("Confidential LLM inference (llama2-gen)\n");
    std::printf("========================================\n\n");

    const auto np = runConfig(EngineKind::NoProtect);
    const auto ci = runConfig(EngineKind::CI);
    const auto tol = runConfig(EngineKind::Toleo);
    const auto inv = runConfig(EngineKind::InvisiMem);

    auto row = [&](const char *name, const SimStats &st) {
        std::printf("%-10s exec %.3f ms   overhead %+6.1f%%   "
                    "read lat %6.1f ns   traffic %5.2f B/inst\n",
                    name, st.execSeconds * 1e3,
                    (st.execSeconds / np.execSeconds - 1.0) * 100.0,
                    st.avgReadLatencyNs,
                    st.dataBpi + st.macBpi + st.stealthBpi +
                        st.dummyBpi);
    };
    row("NoProtect", np);
    row("CI", ci);
    row("Toleo", tol);
    row("InvisiMem", inv);

    const double fresh_cost =
        (tol.execSeconds - ci.execSeconds) / np.execSeconds * 100.0;
    std::printf("\nfreshness on top of CI costs %.2f%% "
                "(paper: 1-2%% average)\n", fresh_cost);
    std::printf("stealth cache hit rate: %.1f%%  (paper: ~98%%)\n",
                tol.stealthCacheHitRate * 100.0);

    const TripStore::Usage &u = tol.usage;
    const auto total = u.flatPages + u.unevenPages + u.fullPages;
    if (total > 0)
        std::printf("Trip pages: %.1f%% flat / %.1f%% uneven / "
                    "%.2f%% full (weights: uniform activation "
                    "rewrites keep pages flat)\n",
                    100.0 * u.flatPages / total,
                    100.0 * u.unevenPages / total,
                    100.0 * u.fullPages / total);
    return 0;
}
