/**
 * @file
 * Trace subsystem tests: binary round-trip through the TOLEOTRC
 * writer/reader, looped-replay semantics, capture fidelity (a
 * captureTrace replay must match the plain synthetic run
 * byte-for-byte in statsToJson), corrupt/truncated file error paths,
 * the text importer, and the committed fixture.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workload/trace_file.hh"

using namespace toleo;

namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

WorkloadInfo
anyInfo()
{
    return {"t", "t", 0, 0.0, 4 * MiB, 4.0};
}

/** A stream of references exercising every encoding regime. */
std::vector<MemRef>
sampleRefs(unsigned salt)
{
    std::vector<MemRef> refs;
    Addr addr = (Addr{salt} + 1) << 40; // TB-range first delta
    for (unsigned i = 0; i < 400; ++i) {
        MemRef r;
        // Forward strides, page jumps, and backward deltas.
        if (i % 7 == 0)
            addr -= 3 * pageSize;
        else if (i % 3 == 0)
            addr += pageSize * (i % 11);
        else
            addr += blockSize;
        r.addr = addr;
        r.isWrite = (i % 5 == 0);
        r.instGap = (i % 13 == 0) ? 0xffffffffu : i % 17;
        refs.push_back(r);
    }
    return refs;
}

} // namespace

TEST(TraceRoundTrip, WriterReaderPreserveEveryRecord)
{
    const std::string path = tempPath("trace_roundtrip.trc");
    const auto s0 = sampleRefs(0);
    const auto s1 = sampleRefs(7);

    TraceWriter writer(2, "bsw", 1234);
    writer.append(0, s0.data(), s0.size());
    writer.append(1, s1.data(), s1.size());
    EXPECT_EQ(writer.recordCount(0), s0.size());
    writer.writeTo(path);

    const auto trace = TraceFile::open(path);
    EXPECT_EQ(trace->workload(), "bsw");
    EXPECT_EQ(trace->seed(), 1234u);
    ASSERT_EQ(trace->streamCount(), 2u);
    EXPECT_EQ(trace->recordCount(0), s0.size());
    EXPECT_EQ(trace->recordCount(1), s1.size());

    for (unsigned stream = 0; stream < 2; ++stream) {
        const auto &want = stream == 0 ? s0 : s1;
        TraceReplayGen gen(anyInfo(), trace, stream);
        std::vector<MemRef> got(want.size());
        gen.nextBatch(got.data(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].addr, want[i].addr) << i;
            EXPECT_EQ(got[i].isWrite, want[i].isWrite) << i;
            EXPECT_EQ(got[i].instGap, want[i].instGap) << i;
        }
    }
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, ReplayClearsStaleRequestEnds)
{
    // Traces do not record request ends, and the System reuses one
    // reference buffer per core across batches: a replayed batch must
    // overwrite every flag an earlier batch (or a request-flagging
    // wrapper) left behind, or an open-loop replay would count
    // phantom requests.
    const std::string path = tempPath("trace_flags.trc");
    auto refs = sampleRefs(5);
    for (std::size_t i = 0; i < refs.size(); i += 3)
        refs[i].endsRequest = true;
    TraceWriter writer(1, "t", 0);
    writer.append(0, refs.data(), refs.size());
    writer.writeTo(path);

    const auto trace = TraceFile::open(path);
    TraceReplayGen gen(anyInfo(), trace, 0);
    MemRef stale;
    stale.endsRequest = true;
    std::vector<MemRef> buf(256, stale);
    for (std::size_t pos = 0; pos < refs.size(); pos += buf.size()) {
        const std::size_t n = std::min(buf.size(), refs.size() - pos);
        std::fill(buf.begin(), buf.end(), stale);
        gen.nextBatch(buf.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_FALSE(buf[i].endsRequest) << pos + i;
            EXPECT_EQ(buf[i].addr, refs[pos + i].addr) << pos + i;
        }
    }
    std::remove(path.c_str());
}

TEST(TraceRoundTrip, ReplayLoopsPastTheCapturedWindow)
{
    const std::string path = tempPath("trace_loop.trc");
    const auto refs = sampleRefs(3);
    TraceWriter writer(1, "t", 0);
    writer.append(0, refs.data(), refs.size());
    writer.writeTo(path);

    const auto trace = TraceFile::open(path);
    TraceReplayGen gen(anyInfo(), trace, 0);
    // Core 5 of a replayed System maps onto stream 5 % 1 == 0.
    TraceReplayGen wrapped(anyInfo(), trace, 5);

    // Drain two and a half laps one reference at a time: every lap
    // must replay the identical sequence (delta state resets at the
    // wrap).
    for (unsigned lap = 0; lap < 2; ++lap) {
        for (std::size_t i = 0; i < refs.size(); ++i) {
            const MemRef a = gen.next();
            const MemRef b = wrapped.next();
            EXPECT_EQ(a.addr, refs[i].addr) << lap << ":" << i;
            EXPECT_EQ(b.addr, refs[i].addr) << lap << ":" << i;
            EXPECT_EQ(a.instGap, refs[i].instGap);
            EXPECT_EQ(a.isWrite, refs[i].isWrite);
        }
    }
    std::remove(path.c_str());
}

namespace {

SweepOptions
tinyWindow()
{
    SweepOptions opts;
    opts.cores = 2;
    opts.warmupRefs = 500;
    opts.measureRefs = 1500;
    return opts;
}

/** Capture @p opts's window of @p workload to @p path. */
void
captureWindow(const std::string &path, const std::string &workload,
              const SweepOptions &opts)
{
    captureTrace(path, workload, opts.cores, opts.seed,
                 opts.warmupRefs + opts.measureRefs);
}

} // namespace

TEST(TraceCapture, RecordedAndReplayedRunsMatchLiveByteForByte)
{
    const std::string path = tempPath("trace_capture.trc");
    const SweepCell cell{"bsw", EngineKind::Toleo};

    // Plain synthetic run: the reference result.
    const std::string live =
        statsToJson(runSweepCell(cell, tinyWindow())).dump(2);

    // The capture holds warmup + measurement for every core.
    captureWindow(path, "bsw", tinyWindow());
    const auto trace = TraceFile::open(path);
    EXPECT_EQ(trace->workload(), "bsw");
    ASSERT_EQ(trace->streamCount(), 2u);
    EXPECT_EQ(trace->recordCount(0), 2000u);
    EXPECT_EQ(trace->recordCount(1), 2000u);

    // Replaying the capture through the same window reproduces the
    // live generator's stats byte-for-byte -- the acceptance
    // contract of the trace subsystem.
    SweepOptions rep = tinyWindow();
    rep.trace = TraceFile::open(path);
    const std::string replayed =
        statsToJson(runSweepCell(cell, rep)).dump(2);
    EXPECT_EQ(live, replayed);

    // A path that cannot be written fails by TraceError.
    EXPECT_THROW(captureWindow(tempPath("no_such_dir/trace.trc"), "bsw",
                               tinyWindow()),
                 TraceError);

    std::remove(path.c_str());
}

TEST(TraceCapture, ReplayUnderADifferentEngineStillRuns)
{
    const std::string path = tempPath("trace_engines.trc");
    captureWindow(path, "bsw", tinyWindow());

    // The same capture drives any engine in the grid (the CI smoke
    // cell relies on this), with a shorter and a longer window than
    // the capture (the latter wraps).
    SweepOptions rep = tinyWindow();
    rep.trace = TraceFile::open(path);
    rep.measureRefs = 500;
    EXPECT_GT(runSweepCell({"bsw", EngineKind::Merkle}, rep).ipc, 0.0);
    rep.measureRefs = 6000;
    EXPECT_GT(runSweepCell({"bsw", EngineKind::Toleo}, rep).ipc, 0.0);

    std::remove(path.c_str());
}

TEST(TraceErrors, OversizedWorkloadNameIsRejected)
{
    // The header name field is 32 bytes NUL-padded; silent
    // truncation would round-trip a different name.
    EXPECT_THROW(TraceWriter(1, std::string(32, 'x'), 0), TraceError);
    EXPECT_NO_THROW(TraceWriter(1, std::string(31, 'x'), 0));
    // A capture checks the name before it draws anything.
    EXPECT_THROW(captureTrace(tempPath("trace_long_name.trc"),
                              std::string(32, 'x'), 1, 0, 1),
                 TraceError);
}

TEST(TraceErrors, LoadFailuresThrowTraceError)
{
    const std::string good = tempPath("trace_good.trc");
    const auto refs = sampleRefs(1);
    TraceWriter writer(1, "bsw", 42);
    writer.append(0, refs.data(), refs.size());
    writer.writeTo(good);
    const std::string bytes = readFile(good);
    ASSERT_GT(bytes.size(), 64u);

    const std::string bad = tempPath("trace_bad.trc");
    auto expectThrows = [&](const std::string &contents,
                            const char *what) {
        writeFile(bad, contents);
        EXPECT_THROW(TraceFile::open(bad), TraceError) << what;
    };

    // Missing file.
    EXPECT_THROW(TraceFile::open(tempPath("no_such_trace.trc")),
                 TraceError);

    // Truncated header (empty and mid-header).
    expectThrows("", "empty file");
    expectThrows(bytes.substr(0, 10), "mid-header truncation");

    // Bad magic.
    {
        std::string b = bytes;
        b[0] = 'X';
        expectThrows(b, "bad magic");
    }
    // Unsupported version.
    {
        std::string b = bytes;
        b[8] = 99;
        expectThrows(b, "bad version");
    }
    // Zero streams.
    {
        std::string b = bytes;
        b[12] = 0;
        expectThrows(b, "zero streams");
    }
    // Stream table runs past the end of the file.
    {
        std::string b = bytes;
        b[12] = 100;
        expectThrows(b, "oversized stream table");
    }
    // Truncated payload: the stream decodes to fewer records than
    // the table declares.
    expectThrows(bytes.substr(0, bytes.size() - 1),
                 "truncated payload");
    // Corrupt payload: a varint with its continuation bit stuck runs
    // off the end of the stream.
    {
        std::string b = bytes;
        b[b.size() - 1] = static_cast<char>(
            static_cast<unsigned char>(b[b.size() - 1]) | 0x80);
        expectThrows(b, "non-terminating varint");
    }
    // Corrupt record count in the stream table (offset 64 + 16).
    {
        std::string b = bytes;
        b[64 + 16] = static_cast<char>(b[64 + 16] + 1);
        expectThrows(b, "record count mismatch");
    }

    // An empty stream cannot provide infinite replay.
    const std::string empty = tempPath("trace_empty.trc");
    TraceWriter(1, "t", 0).writeTo(empty);
    EXPECT_THROW(TraceFile::open(empty), TraceError);

    std::remove(good.c_str());
    std::remove(bad.c_str());
    std::remove(empty.c_str());
}

TEST(TraceErrors, WriterOutputCarriesAVerifiableChecksum)
{
    const std::string path = tempPath("trace_checksum.trc");
    const auto refs = sampleRefs(2);
    TraceWriter writer(1, "bsw", 42);
    writer.append(0, refs.data(), refs.size());
    writer.writeTo(path);

    std::string bytes = readFile(path);
    ASSERT_GT(bytes.size(), 64u);
    // The checksum field (offset 56) is nonzero...
    bool nonzero = false;
    for (int i = 0; i < 8; ++i)
        nonzero = nonzero || bytes[56 + i] != 0;
    EXPECT_TRUE(nonzero);
    // ...and a freshly written file verifies.
    EXPECT_NO_THROW(TraceFile::open(path));

    // Zeroing the field is a corruption like any other: it must not
    // switch verification off.
    for (int i = 0; i < 8; ++i)
        bytes[56 + i] = 0;
    writeFile(path, bytes);
    EXPECT_THROW(TraceFile::open(path), TraceError);

    std::remove(path.c_str());
}

#ifdef TOLEO_TRACE_FIXTURE

TEST(TraceFuzz, AnySingleByteCorruptionOfTheFixtureThrows)
{
    // Property test for the reader: flip one byte anywhere in the
    // committed fixture and the load must raise TraceError -- never
    // crash, never silently succeed with a different stream.  The
    // structural checks alone cannot promise this (a flipped bit
    // inside a varint can still decode cleanly); the whole-file
    // checksum closes exactly that hole.  Seeded draws keep the run
    // deterministic.
    const std::string pristine = readFile(TOLEO_TRACE_FIXTURE);
    ASSERT_GT(pristine.size(), 64u);
    ASSERT_NO_THROW(TraceFile::open(TOLEO_TRACE_FIXTURE));

    const std::string bad = tempPath("trace_fuzz.trc");
    Rng rng(0xf00dfeed);
    for (int iter = 0; iter < 300; ++iter) {
        // First iterations sweep the header + stream table byte by
        // byte (the structured region where a lucky flip is most
        // likely to stay parseable); the rest sample the payload.
        const std::size_t off =
            iter < 112 ? static_cast<std::size_t>(iter)
                       : rng.nextBounded(pristine.size());
        const std::uint8_t flip = static_cast<std::uint8_t>(
            1 + rng.nextBounded(255));
        std::string corrupt = pristine;
        corrupt[off] = static_cast<char>(
            static_cast<std::uint8_t>(corrupt[off]) ^ flip);

        writeFile(bad, corrupt);
        EXPECT_THROW(TraceFile::open(bad), TraceError)
            << "offset " << off << " xor "
            << static_cast<unsigned>(flip);
    }
    std::remove(bad.c_str());
}

TEST(TraceFixture, CommittedFixtureLoadsAndReplays)
{
    const auto trace = TraceFile::open(TOLEO_TRACE_FIXTURE);
    EXPECT_EQ(trace->workload(), "bsw");
    ASSERT_EQ(trace->streamCount(), 2u);
    EXPECT_GT(trace->recordCount(0), 0u);
    EXPECT_GT(trace->recordCount(1), 0u);

    SweepOptions opts = tinyWindow();
    opts.trace = trace;
    const SimStats stats =
        runSweepCell({"bsw", EngineKind::Toleo}, opts);
    EXPECT_GT(stats.ipc, 0.0);
    EXPECT_GT(stats.llcMpki, 0.0);

    // The fixture is a capture of bsw on 2 cores at seed 42 over an
    // 8000-reference window, and captureTrace still writes it byte
    // for byte.
    const std::string again = tempPath("trace_fixture_again.trc");
    captureTrace(again, "bsw", 2, 42, 8000);
    EXPECT_EQ(readFile(again), readFile(TOLEO_TRACE_FIXTURE));
    std::remove(again.c_str());
}

#endif // TOLEO_TRACE_FIXTURE

#ifdef TOLEO_TRACE_CONVERT_BIN

TEST(TraceConvert, TextImportRoundTrip)
{
    const std::string txt = tempPath("trace_convert_in.txt");
    const std::string trc = tempPath("trace_convert_out.trc");
    writeFile(txt,
              "# addr,rw,gap\n"
              "0x10040,R,3\n"
              "0x10080, W, 1\n"
              "\n"
              "65728 r\n"             // decimal, no gap
              "0x100c0,w,7 # store\n" // trailing comment
              "0x20000,R,2\n"
              "0x20040,W,0\n");

    const std::string cmd =
        std::string("\"") + TOLEO_TRACE_CONVERT_BIN +
        "\" --workload bsw --streams 2 --seed 9 \"" + txt + "\" \"" +
        trc + "\" 2> /dev/null";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

    const auto trace = TraceFile::open(trc);
    EXPECT_EQ(trace->workload(), "bsw");
    EXPECT_EQ(trace->seed(), 9u);
    ASSERT_EQ(trace->streamCount(), 2u);
    // 6 references dealt round-robin onto 2 streams.
    EXPECT_EQ(trace->recordCount(0), 3u);
    EXPECT_EQ(trace->recordCount(1), 3u);

    // Stream 0 got lines 1, 3, 5: check full decode.
    TraceReplayGen gen(anyInfo(), trace, 0);
    MemRef refs[3];
    gen.nextBatch(refs, 3);
    EXPECT_EQ(refs[0].addr, 0x10040u);
    EXPECT_FALSE(refs[0].isWrite);
    EXPECT_EQ(refs[0].instGap, 3u);
    EXPECT_EQ(refs[1].addr, 65728u);
    EXPECT_FALSE(refs[1].isWrite);
    EXPECT_EQ(refs[1].instGap, 0u);
    EXPECT_EQ(refs[2].addr, 0x20000u);
    EXPECT_FALSE(refs[2].isWrite);
    EXPECT_EQ(refs[2].instGap, 2u);

    // Malformed input fails loudly instead of emitting a trace:
    // a bad access type, and extra fields (e.g. two joined records)
    // that silently dropping would turn into a corrupted import.
    for (const char *junk :
         {"0x1000,Q,1\n", "0x1000 R 3 0x2000 W 1\n"}) {
        writeFile(txt, junk);
        const std::string bad =
            std::string("\"") + TOLEO_TRACE_CONVERT_BIN + "\" \"" +
            txt + "\" \"" + trc + "\" > /dev/null 2>&1";
        EXPECT_NE(std::system(bad.c_str()), 0) << junk;
    }

    // A workload name the header cannot hold fails by name, with
    // exit status 1: an uncaught TraceError would abort instead.
    writeFile(txt, "0x1000,R,1\n");
    const std::string err = tempPath("trace_convert.err");
    const std::string longName =
        std::string("\"") + TOLEO_TRACE_CONVERT_BIN + "\" --workload " +
        std::string(32, 'x') + " \"" + txt + "\" \"" + trc +
        "\" > /dev/null 2> \"" + err + "\"";
    const int rc = std::system(longName.c_str());
    ASSERT_TRUE(WIFEXITED(rc)) << rc;
    EXPECT_EQ(WEXITSTATUS(rc), 1);
    EXPECT_NE(readFile(err).find("workload name"), std::string::npos)
        << readFile(err);
    std::remove(err.c_str());

    std::remove(txt.c_str());
    std::remove(trc.c_str());
}

#endif // TOLEO_TRACE_CONVERT_BIN
