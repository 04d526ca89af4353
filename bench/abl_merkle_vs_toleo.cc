/**
 * @file
 * Ablation: Merkle-tree freshness vs Toleo as protected memory
 * scales (the paper's motivating argument, Sections 1-2).
 *
 * The Merkle walk deepens with protected size (8-ary tree: ~13
 * levels at 28 TB) and its version-cache hit rate degrades, while
 * Toleo's cost is size-independent.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "secmem/merkle.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Ablation: Merkle Tree vs Toleo at Scale");

    const std::uint64_t sizes[] = {128 * MiB, 64 * GiB, 1 * TiB,
                                   28 * TiB};

    const auto np = runExperiment("bfs", EngineKind::NoProtect);
    const auto tol = runExperiment("bfs", EngineKind::Toleo);

    std::printf("%-14s %8s %14s %12s\n", "protected", "levels",
                "extra acc/rd", "overhead");
    for (auto size : sizes) {
        SystemConfig cfg = makeScaledConfig("bfs", EngineKind::Merkle, 8);
        cfg.merkle.protectedBytes = size;
        System sys(cfg);
        const auto st = sys.run(20000, 40000);
        auto &merkle = dynamic_cast<MerkleTreeEngine &>(sys.engine());
        std::printf("%10.3f TB %8u %14.2f %11.1f%%\n",
                    static_cast<double>(size) / TiB,
                    merkle.numLevels(),
                    merkle.avgExtraAccessesPerRead(),
                    (st.execSeconds / np.execSeconds - 1) * 100);
    }
    std::printf("%-14s %8s %14s %11.1f%%  <- size-independent\n",
                "Toleo (28TB)", "-", "~0.02",
                (tol.execSeconds / np.execSeconds - 1) * 100);
    std::printf("\npaper: up to 13 dependent accesses for 28 TB "
                "8-ary tree; version-cache hit rates 60-70%% vs "
                "Toleo's 98%%\n");
    return 0;
}
