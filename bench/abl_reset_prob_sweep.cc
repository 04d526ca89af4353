/**
 * @file
 * Ablation: the stealth reset probability (Section 4.2).
 *
 * A more aggressive reset (2^-12) wastes bandwidth on page
 * re-encryptions; a laxer one (2^-28) stretches stealth intervals
 * and erodes the non-repetition margin.  The sweep shows the paper's
 * 2^-20 sits where re-encryption cost is negligible while exhaustion
 * probability stays astronomically small.
 */

#include <cmath>
#include <cstdio>

#include "bench/bench_util.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Ablation: Stealth Reset Probability");

    std::printf("%-10s %10s %14s %18s\n", "reset p", "resets",
                "reenc B/inst", "P(exhaust 2^56)");

    for (unsigned log2p : {12u, 16u, 20u, 24u, 28u}) {
        SystemConfig cfg = makeScaledConfig("bsw", EngineKind::Toleo, 8);
        cfg.device.trip.resetLog2 = log2p;
        System sys(cfg);
        const auto st = sys.run(20000, 60000);

        // Analytic exhaustion probability for this reset rate with
        // the paper's 27-bit stealth space (Section 6.2 math).
        const double p = std::pow(2.0, -double(log2p));
        const double log_no_reset =
            std::pow(2.0, 26) * std::log1p(-p);
        const double p_noreset = std::exp(log_no_reset);
        const double p_exhaust = -std::expm1(
            std::pow(2.0, 30) * std::log1p(-p_noreset));

        const auto &eng = dynamic_cast<ToleoEngine &>(sys.engine());
        const double reenc_bpi =
            static_cast<double>(eng.pageReencryptions()) * 2 *
            blocksPerPage * blockSize / st.instructions;

        std::printf("2^-%-7u %10llu %14.6f %18.2e\n", log2p,
                    static_cast<unsigned long long>(st.toleoResets),
                    reenc_bpi, p_exhaust);
    }
    std::printf("\npaper design point: 2^-20 -> exhaustion 1.7e-19 "
                "with re-encryption cost amortized over ~2^20 "
                "writes\n");
    return 0;
}
