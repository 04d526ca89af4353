/**
 * @file
 * Pins the bench-scale paper grid: every cell of the 12-workload x
 * 6-engine sweep at the committed perf record's shape (8 cores,
 * 30k warmup + 60k measured refs per core, seed 42) must reproduce
 * that record's ipc and llcMpki exactly.  The fixture
 * tests/data/golden_grid8.json is those two columns of
 * BENCH_sweep.json; after an *intended* model change regenerate the
 * record with `toleo_sim --bench`, then re-extract the fixture:
 *
 *   python3 - <<'EOF'
 *   import json
 *   b = json.load(open('BENCH_sweep.json'))
 *   json.dump({'source': 'BENCH_sweep.json',
 *              'config': {k: b['config'][k] for k in
 *                         ('cores', 'warmupRefs', 'measureRefs', 'seed')},
 *              'cells': [{k: c[k] for k in
 *                         ('workload', 'engine', 'ipc', 'llcMpki')}
 *                        for c in b['cells']]},
 *             open('tests/data/golden_grid8.json', 'w'), indent=2)
 *   EOF
 */

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

using namespace toleo;

TEST(GridGolden, PaperGridIpcAndMpkiMatchCommittedRecord)
{
    std::ifstream in(TOLEO_GRID_GOLDEN, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing fixture " << TOLEO_GRID_GOLDEN;
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    const Json doc = Json::parse(text.str(), &err);
    ASSERT_TRUE(err.empty()) << err;

    const Json &cfg = *doc.get("config");
    SweepOptions opts;
    opts.cores = static_cast<unsigned>(cfg.get("cores")->asUint());
    opts.warmupRefs = cfg.get("warmupRefs")->asUint();
    opts.measureRefs = cfg.get("measureRefs")->asUint();
    opts.seed = cfg.get("seed")->asUint();
    opts.jobs = 2;

    const Json &want = *doc.get("cells");
    std::vector<SweepCell> cells;
    for (std::size_t i = 0; i < want.size(); ++i) {
        SweepCell cell;
        cell.workload = want.at(i).get("workload")->asString();
        ASSERT_TRUE(parseEngineKind(want.at(i).get("engine")->asString(),
                                    cell.engine));
        cells.push_back(cell);
    }
    // The whole paper grid, not a sample of it.
    ASSERT_EQ(cells.size(),
              paperWorkloads().size() * allEngineKinds().size());

    const std::vector<SimStats> got = runSweep(cells, opts);
    ASSERT_EQ(got.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string name =
            cells[i].workload + "/" + engineKindName(cells[i].engine);
        EXPECT_EQ(got[i].ipc, want.at(i).get("ipc")->asDouble()) << name;
        EXPECT_EQ(got[i].llcMpki, want.at(i).get("llcMpki")->asDouble())
            << name;
    }
}
