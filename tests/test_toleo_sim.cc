/**
 * @file
 * Smoke tests for the toleo_sim sweep driver: the JSON library it
 * emits with, the shared sweep API it drives, and the installed
 * binary end-to-end (exec'd, output parsed back).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"

using namespace toleo;

TEST(Json, RoundTrip)
{
    Json doc = Json::object();
    doc["name"] = "toleo";
    doc["pi"] = 3.25;
    doc["count"] = std::uint64_t{42};
    doc["ok"] = true;
    doc["none"] = Json();
    Json arr = Json::array();
    arr.push_back(1);
    arr.push_back("two");
    doc["arr"] = std::move(arr);

    for (const int indent : {-1, 2}) {
        std::string err;
        const Json back = Json::parse(doc.dump(indent), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.get("name")->asString(), "toleo");
        EXPECT_DOUBLE_EQ(back.get("pi")->asDouble(), 3.25);
        EXPECT_EQ(back.get("count")->asUint(), 42u);
        EXPECT_TRUE(back.get("ok")->asBool());
        EXPECT_TRUE(back.get("none")->isNull());
        EXPECT_EQ(back.get("arr")->size(), 2u);
        EXPECT_EQ(back.get("arr")->at(1).asString(), "two");
    }
}

TEST(Json, StringEscapes)
{
    const Json doc("a\"b\\c\nd\te");
    std::string err;
    const Json back = Json::parse(doc.dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.asString(), "a\"b\\c\nd\te");

    const Json uni = Json::parse("\"\\u0041\\u00e9\"", &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(uni.asString(), "A\xc3\xa9");
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    // JSON has no NaN/Inf literals; %.17g's "nan"/"inf" spellings
    // would make the document unparseable, so non-finite doubles
    // must degrade to null.
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(Json(nan).dump(), "null");
    EXPECT_EQ(Json(inf).dump(), "null");
    EXPECT_EQ(Json(-inf).dump(), "null");

    Json doc = Json::object();
    doc["a"] = nan;
    doc["b"] = inf;
    doc["c"] = -inf;
    doc["fine"] = 1.5;
    Json arr = Json::array();
    arr.push_back(nan);
    arr.push_back(2.5);
    doc["arr"] = std::move(arr);

    for (const int indent : {-1, 2}) {
        const std::string text = doc.dump(indent);
        EXPECT_EQ(text.find("nan"), std::string::npos) << text;
        EXPECT_EQ(text.find("inf"), std::string::npos) << text;

        std::string err;
        const Json back = Json::parse(text, &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_TRUE(back.get("a")->isNull());
        EXPECT_TRUE(back.get("b")->isNull());
        EXPECT_TRUE(back.get("c")->isNull());
        EXPECT_DOUBLE_EQ(back.get("fine")->asDouble(), 1.5);
        EXPECT_TRUE(back.get("arr")->at(0).isNull());
        EXPECT_DOUBLE_EQ(back.get("arr")->at(1).asDouble(), 2.5);
    }
}

TEST(Json, ParseErrors)
{
    std::string err;
    EXPECT_TRUE(Json::parse("{\"a\":", &err).isNull());
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(Json::parse("[1,2,]x", &err).isNull());
    EXPECT_FALSE(err.empty());
    EXPECT_TRUE(Json::parse("tru", &err).isNull());
    EXPECT_FALSE(err.empty());
}

TEST(SweepApi, EngineAndWorkloadParsing)
{
    EngineKind kind;
    ASSERT_TRUE(parseEngineKind("Toleo", kind));
    EXPECT_EQ(kind, EngineKind::Toleo);
    EXPECT_FALSE(parseEngineKind("toleo", kind));
    EXPECT_FALSE(parseEngineKind("", kind));

    EXPECT_EQ(parseEngineList("all").size(), 6u);
    const auto two = parseEngineList("NoProtect,Merkle");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], EngineKind::NoProtect);
    EXPECT_EQ(two[1], EngineKind::Merkle);

    EXPECT_EQ(parseWorkloadList("all"), paperWorkloads());
    const auto w = parseWorkloadList("bsw,dbg");
    ASSERT_EQ(w.size(), 2u);
    EXPECT_EQ(w[0], "bsw");
    EXPECT_EQ(w[1], "dbg");
}

TEST(SweepApi, GridIsRowMajor)
{
    const auto cells = makeSweepGrid(
        {"bsw", "dbg"}, {EngineKind::NoProtect, EngineKind::Toleo});
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].workload, "bsw");
    EXPECT_EQ(cells[0].engine, EngineKind::NoProtect);
    EXPECT_EQ(cells[1].workload, "bsw");
    EXPECT_EQ(cells[1].engine, EngineKind::Toleo);
    EXPECT_EQ(cells[3].workload, "dbg");
    EXPECT_EQ(cells[3].engine, EngineKind::Toleo);
}

namespace {

SweepOptions
tinyWindow()
{
    SweepOptions opts;
    opts.cores = 2;
    opts.warmupRefs = 500;
    opts.measureRefs = 2000;
    return opts;
}

} // namespace

TEST(SweepApi, ParallelMatchesSerial)
{
    const auto cells = makeSweepGrid(
        {"bsw", "dbg"}, {EngineKind::NoProtect, EngineKind::Toleo});

    SweepOptions serial = tinyWindow();
    serial.jobs = 1;
    SweepOptions parallel = tinyWindow();
    parallel.jobs = 4;

    std::size_t calls = 0;
    const auto a = runSweep(cells, serial,
                            [&](const SimStats &, std::size_t done,
                                std::size_t total) {
                                ++calls;
                                EXPECT_LE(done, total);
                            });
    const auto b = runSweep(cells, parallel);

    EXPECT_EQ(calls, cells.size());
    ASSERT_EQ(a.size(), cells.size());
    ASSERT_EQ(b.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        // Cells are deterministic given the seed, so thread fan-out
        // must not change any result.
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].engine, b[i].engine);
        EXPECT_EQ(a[i].instructions, b[i].instructions);
        EXPECT_EQ(a[i].llcMisses, b[i].llcMisses);
        EXPECT_DOUBLE_EQ(a[i].ipc, b[i].ipc);
        EXPECT_GT(a[i].ipc, 0.0);
        EXPECT_GT(a[i].llcMpki, 0.0);
    }
}

TEST(SweepApi, StatsSerializeRoundTrip)
{
    SweepOptions opts = tinyWindow();
    const SimStats stats =
        runSweepCell({"bsw", EngineKind::Toleo}, opts);

    std::string err;
    const Json j = Json::parse(statsToJson(stats).dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(j.get("workload")->asString(), "bsw");
    EXPECT_EQ(j.get("engine")->asString(), "Toleo");
    EXPECT_DOUBLE_EQ(j.get("ipc")->asDouble(), stats.ipc);
    EXPECT_EQ(j.get("llcMisses")->asUint(), stats.llcMisses);

    const std::string row = statsCsvRow(stats);
    EXPECT_NE(row.find("bsw,Toleo,"), std::string::npos);
    // Header and row have the same number of columns.
    const auto commas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    EXPECT_EQ(commas(statsCsvHeader()), commas(row));
}

#ifdef TOLEO_SIM_BIN

TEST(ToleoSimBinary, TinySweepEmitsValidJson)
{
    const std::string out =
        ::testing::TempDir() + "/toleo_sim_smoke.json";
    const std::string cmd =
        std::string("\"") + TOLEO_SIM_BIN +
        "\" --workloads bsw,dbg --engines NoProtect,Toleo"
        " --cores 2 --warmup 500 --measure 2000 --jobs 4 --quiet"
        " --out \"" + out + "\"";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    std::ifstream in(out);
    ASSERT_TRUE(in.good()) << "missing output file " << out;
    std::ostringstream text;
    text << in.rdbuf();

    std::string err;
    const Json doc = Json::parse(text.str(), &err);
    ASSERT_TRUE(err.empty()) << err;

    ASSERT_TRUE(doc.has("config"));
    EXPECT_EQ(doc.get("config")->get("jobs")->asUint(), 4u);
    EXPECT_EQ(doc.get("config")->get("cells")->asUint(), 4u);

    const Json *results = doc.get("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->size(), 4u);
    for (std::size_t i = 0; i < results->size(); ++i) {
        const Json &r = results->at(i);
        EXPECT_GT(r.get("ipc")->asDouble(), 0.0);
        EXPECT_GT(r.get("llcMpki")->asDouble(), 0.0);
        EXPECT_GT(r.get("instructions")->asUint(), 0u);
    }
    // Row-major cell order survives the parallel run.
    EXPECT_EQ(results->at(0).get("workload")->asString(), "bsw");
    EXPECT_EQ(results->at(0).get("engine")->asString(), "NoProtect");
    EXPECT_EQ(results->at(3).get("workload")->asString(), "dbg");
    EXPECT_EQ(results->at(3).get("engine")->asString(), "Toleo");

    std::remove(out.c_str());
}

namespace {

/**
 * Run the toleo_sim binary with @p args.  @return its stderr when it
 * fails the way every CLI error does, with exit status 1; otherwise
 * "<exit N>" for any other status (0 on success) or "<no exit>" for
 * an abort or other signal.
 */
std::string
cliError(const std::string &args)
{
    const std::string errPath =
        ::testing::TempDir() + "/toleo_sim_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".err";
    const std::string cmd = std::string("\"") + TOLEO_SIM_BIN + "\" " +
                            args + " --quiet > /dev/null 2> \"" +
                            errPath + "\"";
    const int rc = std::system(cmd.c_str());
    std::ifstream in(errPath);
    std::ostringstream text;
    text << in.rdbuf();
    std::remove(errPath.c_str());
    if (!WIFEXITED(rc))
        return "<no exit>";
    if (WEXITSTATUS(rc) != 1)
        return "<exit " + std::to_string(WEXITSTATUS(rc)) + ">";
    return text.str();
}

} // namespace

TEST(ToleoSimBinary, CsvAndBadArgs)
{
    const std::string out =
        ::testing::TempDir() + "/toleo_sim_smoke.csv";
    const std::string cmd =
        std::string("\"") + TOLEO_SIM_BIN +
        "\" --workloads bsw --engines Toleo --cores 2"
        " --warmup 500 --measure 2000 --format csv --quiet"
        " --out \"" + out + "\"";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    std::ifstream in(out);
    ASSERT_TRUE(in.good());
    std::string header, row;
    ASSERT_TRUE(std::getline(in, header));
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_EQ(header, statsCsvHeader());
    EXPECT_EQ(row.rfind("bsw,Toleo,", 0), 0u);
    std::remove(out.c_str());

    // Unknown engines must fail loudly, not emit empty results.
    const std::string bad =
        std::string("\"") + TOLEO_SIM_BIN +
        "\" --engines Bogus --quiet > /dev/null 2>&1";
    EXPECT_NE(std::system(bad.c_str()), 0);

    // Unsigned flags are range-checked by name, never wrapped modulo
    // 2^32: --cores 4294967298 used to simulate 2 cores.  Each value
    // below wraps to a runnable setting, so a lost check shows up as
    // a clean exit.
    struct Case
    {
        const char *flag;
        const char *args;
    };
    const std::string cell = "--workloads bsw --engines Toleo --cores 2"
                             " --warmup 500 --measure 2000 --out \"" +
                             out + "\" ";
    for (const Case &c :
         {Case{"--cores", "--cores 4294967298"},
          Case{"--jobs", "--jobs 4294967297"},
          Case{"--rack", "--rack 4294967298"},
          Case{"--seed", "--seed 99999999999999999999"}}) {
        const std::string err = cliError(cell + c.args);
        EXPECT_NE(err.find(std::string(c.flag) + ": '"),
                  std::string::npos)
            << c.args << ": " << err;
        EXPECT_NE(err.find("out of range"), std::string::npos)
            << c.args << ": " << err;
    }
    std::remove(out.c_str());
}

TEST(ToleoSimBinary, OpenLoopServingCell)
{
    const std::string out =
        ::testing::TempDir() + "/toleo_sim_serving.json";
    const std::string cmd =
        std::string("\"") + TOLEO_SIM_BIN +
        "\" --workloads kvs --engines Toleo --cores 2"
        " --warmup 500 --measure 2000 --arrival poisson:1e6"
        " --slo-us 50 --quiet --out \"" + out + "\"";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    std::ifstream in(out);
    ASSERT_TRUE(in.good()) << "missing output file " << out;
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    const Json doc = Json::parse(text.str(), &err);
    ASSERT_TRUE(err.empty()) << err;

    const Json *results = doc.get("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->size(), 1u);
    const Json *sv = results->at(0).get("serving");
    ASSERT_NE(sv, nullptr);
    EXPECT_EQ(sv->get("arrival")->asString(), "poisson");
    EXPECT_DOUBLE_EQ(sv->get("offeredRatePerSec")->asDouble(), 1e6);
    EXPECT_DOUBLE_EQ(sv->get("sloUs")->asDouble(), 50.0);
    EXPECT_GT(sv->get("requests")->asUint(), 0u);
    EXPECT_GE(sv->get("sloAttainment")->asDouble(), 0.0);
    EXPECT_LE(sv->get("sloAttainment")->asDouble(), 1.0);
    const Json *pct = sv->get("latencyPercentilesUs");
    ASSERT_NE(pct, nullptr);
    EXPECT_LE(pct->get("p50Us")->asDouble(),
              pct->get("p99Us")->asDouble());
    std::remove(out.c_str());
}

TEST(ToleoSimBinary, RecordTraceComposesWithOpenArrival)
{
    // --record-trace captures the raw draws, which neither the
    // arrival model nor the engine list changes: an open-loop capture
    // matches the closed one byte for byte, and so does a capture
    // taken beside every engine and one taken beside Toleo alone.
    const std::string dir = ::testing::TempDir();
    const auto record = [&](const std::string &args,
                            const std::string &trc) {
        const std::string cmd =
            std::string("\"") + TOLEO_SIM_BIN + "\" " + args +
            " --record-trace \"" + trc + "\" --quiet --out \"" + dir +
            "/toleo_sim_record.json\"";
        return std::system(cmd.c_str());
    };
    const auto bytes = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    };
    const std::string kvs = "--workloads kvs --engines Toleo --cores 2"
                            " --warmup 2000 --measure 4000 --arrival ";
    const std::string open = dir + "/toleo_sim_open.trc";
    const std::string closed = dir + "/toleo_sim_closed.trc";
    ASSERT_EQ(record(kvs + "poisson:1e6", open), 0);
    ASSERT_EQ(record(kvs + "closed", closed), 0);
    const std::string want = bytes(closed);
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(bytes(open), want);

    const std::string bsw = "--workloads bsw --cores 2 --warmup 2000"
                            " --measure 6000 --seed 42 --engines ";
    const std::string one = dir + "/toleo_sim_one_engine.trc";
    const std::string all = dir + "/toleo_sim_all_engines.trc";
    ASSERT_EQ(record(bsw + "Toleo", one), 0);
    ASSERT_EQ(record(bsw + "all", all), 0);
    EXPECT_FALSE(bytes(one).empty());
    EXPECT_EQ(bytes(all), bytes(one));

    for (const std::string &trc : {open, closed, one, all})
        std::remove(trc.c_str());
    std::remove((dir + "/toleo_sim_record.json").c_str());
}

namespace {

/**
 * A capture holds one workload's synthetic streams on one node.  The
 * rule is checked once, at the end of toleo_sim's parseArgs, so
 * --record-trace with @p args must exit 1 with the rule's error
 * naming @p conflict, before anything is drawn or simulated.
 */
void
expectCaptureRefused(const std::string &args, const std::string &conflict)
{
    const std::string trc =
        ::testing::TempDir() + "/toleo_sim_rejected.trc";
    std::remove(trc.c_str());
    const std::string err =
        cliError("--engines Toleo --cores 2 --warmup 500 --measure 1500"
                 " --record-trace \"" + trc + "\" " + args);
    EXPECT_NE(err.find("--record-trace captures one workload's "
                       "synthetic streams on one node; it cannot be "
                       "combined with " + conflict),
              std::string::npos)
        << args << ": " << err;
    EXPECT_FALSE(std::ifstream(trc).good()) << args;
}

} // namespace

TEST(TraceCapture, ReplayAndRecordAtOnceThrows)
{
    // A replay reads a capture's streams instead of drawing its own,
    // so there is nothing for a second capture to hold.
    expectCaptureRefused("--workloads bsw --trace unused.trc", "--trace");
}

TEST(TraceCapture, RecordingAMultiCellSweepThrows)
{
    // One file holds one workload's streams on one node: a second
    // workload, or a rack's second node (seeded seed+1), would need a
    // second file.  A second engine draws the same streams, so
    // --engines all is fine (RecordTraceComposesWithOpenArrival).
    expectCaptureRefused("--workloads bsw,dbg", "more than one workload");
    expectCaptureRefused("--workloads bsw --rack 2", "--rack");
}

TEST(ToleoSimBinary, ServingGuardsFailFast)
{
    const auto fails = [](const std::string &args) {
        const std::string cmd = std::string("\"") + TOLEO_SIM_BIN +
                                "\" " + args +
                                " --quiet > /dev/null 2>&1";
        return std::system(cmd.c_str()) != 0;
    };
    // Malformed arrival specs die at the parser, not mid-sweep.
    EXPECT_TRUE(fails("--arrival bogus"));
    EXPECT_TRUE(fails("--arrival poisson:0"));
    EXPECT_TRUE(fails("--arrival poisson:inf"));
    EXPECT_TRUE(fails("--arrival burst:1e6"));
    // Specs that parse but whose per-core mean interarrival or
    // lognormal variance is not finite used to run with every latency
    // at the histogram's clamp, and a rate that drives the arrival
    // clock past 2^53 ns with every latency at 0; they fail by field
    // name, exit 1.
    struct Case
    {
        const char *spec;
        const char *field;
    };
    for (const Case &c :
         {Case{"poisson:1e-300", "arrival.ratePerSec"},
          Case{"burst:1e-300,1", "arrival.ratePerSec"},
          Case{"burst:1e6,1e200", "arrival.cv"},
          Case{"poisson:1e-250", "arrival.ratePerSec"}}) {
        const std::string err =
            cliError(std::string("--workloads kvs --engines Toleo"
                                 " --cores 2 --warmup 500 --measure"
                                 " 1500 --arrival ") +
                     c.spec);
        EXPECT_NE(err.find(c.field), std::string::npos)
            << c.spec << ": " << err;
    }
    EXPECT_TRUE(fails("--slo-us 0"));
    EXPECT_TRUE(fails("--slo-us -3"));
    // The SLO grades open-loop requests only; under the closed model
    // it used to be silently ignored (no serving block at all).
    EXPECT_TRUE(fails("--slo-us 50 --workloads bsw --engines Toleo"
                      " --cores 2 --warmup 500 --measure 2000"));
    EXPECT_TRUE(fails("--arrival closed --slo-us 50 --workloads bsw"
                      " --engines Toleo --cores 2 --warmup 500"
                      " --measure 2000"));
    // --rack-service guards: inf and a bandwidth below the node link
    // both fail at argument-validation speed (the latter used to
    // surface as an std::invalid_argument deep inside runRack).
    EXPECT_TRUE(fails("--rack 2 --rack-service inf --workloads bsw"
                      " --engines Toleo"));
    EXPECT_TRUE(fails("--rack 2 --rack-service 0.001 --workloads bsw"
                      " --engines Toleo"));
    // Outside rack mode --rack-service used to be a silent no-op that
    // simulated a single node; it now fails by name.
    for (const char *args :
         {"--rack-service 5 --workloads bsw --engines Toleo",
          "--rack 1 --rack-service 5 --workloads bsw --engines Toleo"}) {
        const std::string err = cliError(
            std::string(args) + " --cores 2 --warmup 500 --measure 2000");
        EXPECT_NE(err.find("--rack-service configures a rack cell"),
                  std::string::npos)
            << args << ": " << err;
    }
}

TEST(ToleoSimBinary, JobsIsTheOnlyThreadFlag)
{
    // The in-cell thread tiers are library settings
    // (SystemConfig::intraThreads, RackConfig::rackThreads), not
    // flags: their old spellings are unknown options.
    for (const std::string flag :
         {"--threads-per-cell 2", "--rack-threads 2",
          "--allow-oversubscribe"}) {
        const std::string name = flag.substr(0, flag.find(' '));
        const std::string err = cliError(flag);
        EXPECT_NE(err.find("unknown option '" + name + "'"),
                  std::string::npos)
            << flag << ": " << err;
    }
}

TEST(ToleoSimBinary, DefaultJobsIsOnePerHardwareThread)
{
    const std::string out =
        ::testing::TempDir() + "/toleo_sim_default_jobs.json";
    const std::string cmd =
        std::string("\"") + TOLEO_SIM_BIN +
        "\" --workloads bsw --engines Toleo --cores 2 --warmup 500"
        " --measure 2000 --quiet --out \"" + out + "\"";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    std::ifstream in(out);
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    const Json doc = Json::parse(text.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(doc.has("config"));
    EXPECT_EQ(doc.get("config")->get("jobs")->asUint(),
              std::max(1u, std::thread::hardware_concurrency()));
    std::remove(out.c_str());
}

#endif // TOLEO_SIM_BIN
