/**
 * @file
 * Ablation: Merkle-tree freshness vs Toleo as protected memory
 * scales (the paper's motivating argument, Sections 1-2).
 *
 * The Merkle walk deepens with protected size (8-ary tree: ~13
 * levels at 28 TB) and its version-cache hit rate degrades, while
 * Toleo's cost is size-independent.  Every run uses BenchWindow's
 * window and seed, so each overhead divides two runs of one
 * reference stream.
 */

#include <cstdio>
#include <string>

#include "bench/bench_util.hh"
#include "secmem/merkle.hh"

using namespace toleo;

namespace {

/** A size in its largest whole binary unit, e.g. "128 MiB". */
std::string
sizeLabel(std::uint64_t bytes)
{
    if (bytes % TiB == 0)
        return std::to_string(bytes / TiB) + " TiB";
    if (bytes % GiB == 0)
        return std::to_string(bytes / GiB) + " GiB";
    return std::to_string(bytes / MiB) + " MiB";
}

} // namespace

int
main()
{
    setVerbose(false);
    printHeader("Ablation: Merkle Tree vs Toleo at Scale");

    const std::uint64_t sizes[] = {128 * MiB, 64 * GiB, 1 * TiB,
                                   28 * TiB};

    const BenchWindow w;
    const auto np = runExperiment("bfs", EngineKind::NoProtect, w);
    const auto tol = runExperiment("bfs", EngineKind::Toleo, w);

    std::printf("%-14s %8s %14s %12s\n", "protected", "levels",
                "extra acc/rd", "overhead");
    for (auto size : sizes) {
        SystemConfig cfg =
            makeScaledConfig("bfs", EngineKind::Merkle, w.cores);
        cfg.seed = w.seed;
        cfg.merkle.protectedBytes = size;
        System sys(cfg);
        const auto st = sys.run(w.warmupRefs, w.measureRefs);
        auto &merkle = dynamic_cast<MerkleTreeEngine &>(sys.engine());
        std::printf("%-14s %8u %14.2f %11.1f%%\n",
                    sizeLabel(size).c_str(), merkle.numLevels(),
                    merkle.avgExtraAccessesPerRead(),
                    (st.execSeconds / np.execSeconds - 1) * 100);
    }
    std::printf("%-14s %8s %14s %11.1f%%  <- size-independent\n",
                "Toleo (28 TiB)", "-", "~0.02",
                (tol.execSeconds / np.execSeconds - 1) * 100);
    std::printf("\npaper: up to 13 dependent accesses for 28 TB "
                "8-ary tree; version-cache hit rates 60-70%% vs "
                "Toleo's 98%%\n");
    return 0;
}
