/**
 * @file
 * File-backed memory-reference traces.
 *
 * The synthetic generators calibrate paper *shapes*; traces let the
 * same sweep cells run against real application streams (gem5 /
 * DynamoRIO captures via tools/trace_convert, or any synthetic
 * workload's own draws captured by captureTrace(), which is what
 * toleo_sim --record-trace runs).
 *
 * Format ("TOLEOTRC", version 1, little-endian throughout):
 *
 *   offset  size  field
 *   0       8     magic "TOLEOTRC"
 *   8       4     u32 version (= 1)
 *   12      4     u32 streamCount (>= 1; one stream per source core)
 *   16      8     u64 seed of the recorded run (informational)
 *   24      32    source workload name, NUL-padded
 *   56      8     u64 FNV-1a-64 checksum of the whole file with
 *                 this field zeroed
 *   64      24*S  stream table: { u64 byteOffset, u64 byteLength,
 *                                 u64 recordCount } per stream
 *   ...           per-stream record payload
 *
 * The checksum is what makes corruption detection *complete*: the
 * structural validation below catches truncations and inconsistent
 * tables, but a flipped bit inside a varint payload can decode to a
 * perfectly well-formed -- and silently wrong -- reference stream.
 * With the checksum, any single-byte change anywhere in the file
 * fails the load (property-tested against the committed fixture in
 * tests/test_trace.cc).
 *
 * Each record is two LEB128 varints: the zigzag-encoded delta from
 * the previous address in the stream (first record: delta from 0),
 * then (instGap << 1) | isWrite.  Delta + varint encoding makes the
 * common case -- strided or page-local streams -- one or two bytes
 * per field instead of the 16-byte raw MemRef.
 *
 * The reader reads the whole file into a buffer it owns and
 * validates every stream's payload once at open, so the
 * per-reference replay decode needs no bounds checks beyond the
 * end-of-stream wrap.  All load-time
 * failures throw TraceError, which runSweep() surfaces to the
 * caller like any other cell failure.
 */

#ifndef TOLEO_WORKLOAD_TRACE_FILE_HH
#define TOLEO_WORKLOAD_TRACE_FILE_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/workload.hh"

namespace toleo {

/** Malformed, truncated, or unreadable trace file. */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &what)
        : std::runtime_error(what) {}
};

/**
 * In-memory builder for a trace file; one stream per source core.
 *
 * The encoded capture is buffered in RAM until writeTo() (the
 * stream table needs every payload length, and the per-core streams
 * interleave while the file wants them contiguous).  At the typical
 * 2-4 B/record that bounds capture windows to what fits in memory
 * -- hundreds of millions of references per GB; far past that,
 * record in segments or stream per-core temp files externally.
 */
class TraceWriter
{
  public:
    TraceWriter(unsigned streamCount, std::string workload,
                std::uint64_t seed);

    /** Append @p n references to @p stream's payload. */
    void append(unsigned stream, const MemRef *refs, std::size_t n);

    std::uint64_t recordCount(unsigned stream) const;

    /** Serialize header + table + payloads; TraceError on failure. */
    void writeTo(const std::string &path) const;

  private:
    /** One core's encoded payload. */
    struct Stream
    {
        std::vector<std::uint8_t> bytes;
        std::uint64_t count = 0;
        Addr prevAddr = 0;
    };

    std::vector<Stream> streams_;
    std::string workload_;
    std::uint64_t seed_;
};

/**
 * Capture a synthetic run's reference streams: @p refsPerCore draws
 * from each core's makeWorkload(@p workload, core, @p seed), written
 * to @p path as one stream per core.  These are the raw draws a
 * System of @p cores cores makes over a warmup + measure window of
 * @p refsPerCore: a generator's stream does not depend on how it is
 * batched, and the arrival model only marks request ends, which a
 * trace does not keep.  TraceError on a workload name the header
 * cannot hold or an unwritable path.
 */
void captureTrace(const std::string &path, const std::string &workload,
                  unsigned cores, std::uint64_t seed,
                  std::uint64_t refsPerCore);

/**
 * A loaded trace file, held in memory.  Immutable and
 * position-free, so one instance can back every replay generator of
 * a System -- and, read-only, every cell of a sweep.
 */
class TraceFile
{
  public:
    /** Load and fully validate @p path; TraceError on any defect. */
    static std::shared_ptr<const TraceFile>
    open(const std::string &path);

    /** The streams point into data_: not copyable. */
    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    const std::string &workload() const { return workload_; }
    std::uint64_t seed() const { return seed_; }
    unsigned streamCount() const
    {
        return static_cast<unsigned>(streams_.size());
    }
    std::uint64_t recordCount(unsigned stream) const
    {
        return streams_[stream].count;
    }

    /** Payload bounds of one stream (for the replay decoder). */
    const std::uint8_t *streamBegin(unsigned stream) const
    {
        return streams_[stream].begin;
    }
    const std::uint8_t *streamEnd(unsigned stream) const
    {
        return streams_[stream].end;
    }

  private:
    struct Stream
    {
        const std::uint8_t *begin = nullptr;
        const std::uint8_t *end = nullptr;
        std::uint64_t count = 0;
    };

    TraceFile() = default;

    std::vector<std::uint8_t> data_;
    std::vector<Stream> streams_;
    std::string workload_;
    std::uint64_t seed_ = 0;
};

/**
 * Replays one stream of a trace as an infinite reference stream:
 * when the recorded stream is exhausted the cursor wraps to its
 * start (and the delta state resets), so a finite capture drives
 * simulation windows of any length.  Core @p core replays stream
 * core % streamCount.
 */
class TraceReplayGen : public TraceGen
{
  public:
    TraceReplayGen(WorkloadInfo info,
                   std::shared_ptr<const TraceFile> trace,
                   unsigned core);

    void nextBatch(MemRef *out, std::size_t n) override;

  private:
    std::shared_ptr<const TraceFile> trace_;
    const std::uint8_t *begin_;
    const std::uint8_t *end_;
    const std::uint8_t *cur_;
    Addr prevAddr_ = 0;
};

} // namespace toleo

#endif // TOLEO_WORKLOAD_TRACE_FILE_HH
