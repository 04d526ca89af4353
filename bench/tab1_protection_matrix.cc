/**
 * @file
 * Table 1: memory-protection guarantee comparison.
 *
 * Queried from the engine implementations rather than hard-coded, so
 * the table is a living property of the code.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "secmem/ci.hh"
#include "secmem/invisimem.hh"
#include "secmem/merkle.hh"
#include "secmem/noprotect.hh"
#include "toleo/engine.hh"

using namespace toleo;

int
main()
{
    setVerbose(false);
    printHeader("Table 1: Memory Protection Comparison");

    MemTopology topo({});
    ToleoDeviceConfig dcfg;
    dcfg.capacityBytes = 1 * GiB;
    dcfg.protectedBytes = 64 * GiB;
    ToleoDevice dev(dcfg);

    // Client SGX == Merkle-tree engine over a 128 MB EPC.
    MerkleConfig client_sgx;
    client_sgx.protectedBytes = 128 * MiB;

    std::vector<std::unique_ptr<ProtectionEngine>> engines;
    engines.push_back(
        std::make_unique<MerkleTreeEngine>(topo, client_sgx));
    engines.push_back(std::make_unique<CiEngine>(topo, CiConfig{}, true));
    engines.push_back(
        std::make_unique<ToleoEngine>(topo, dev, CiConfig{},
                                      StealthCacheConfig{}));

    const char *labels[] = {"Client SGX (Merkle, 128MB EPC)",
                            "Scalable SGX (CI)", "Toleo"};

    std::printf("%-32s %-12s %-16s %-10s %-10s\n", "Protects",
                "Full memory", "Confidentiality", "Integrity",
                "Freshness");
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto &e = *engines[i];
        std::printf("%-32s %-12s %-16s %-10s %-10s\n", labels[i],
                    e.fullMemory() ? "Yes" : "No",
                    e.confidentiality()
                        ? (e.integrity() ? "Yes" : "Partial")
                        : "No",
                    e.integrity() ? "Yes" : "No",
                    e.freshness() ? "Yes" : "No");
    }
    std::printf("\npaper: Client SGX = yes/yes/yes but only 128 MB;\n"
                "       Scalable SGX = full memory, partial C, no I/F;"
                "\n       Toleo = full memory, all three.\n");
    return 0;
}
