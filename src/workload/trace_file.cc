#include "workload/trace_file.hh"

#include <algorithm>
#include <cstring>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace toleo {

namespace {

constexpr char traceMagic[8] = {'T', 'O', 'L', 'E',
                                'O', 'T', 'R', 'C'};
constexpr std::uint32_t traceVersion = 1;
constexpr std::size_t headerBytes = 64;
constexpr std::size_t tableEntryBytes = 24;
constexpr std::size_t workloadFieldBytes = 32;
constexpr std::size_t checksumOffset = 56;

constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

std::uint64_t
fnv1a(std::uint64_t h, const std::uint8_t *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/**
 * Unchecked varint read: the caller guarantees (via load-time
 * validation) that a complete varint lies at @p p.
 */
std::uint64_t
readVarint(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (*p & 0x80) {
        v |= static_cast<std::uint64_t>(*p++ & 0x7f) << shift;
        shift += 7;
    }
    v |= static_cast<std::uint64_t>(*p++) << shift;
    return v;
}

/**
 * Bounds-checked varint read for validation; false if the varint
 * runs past @p end or is longer than a u64 can hold.
 */
bool
readVarintChecked(const std::uint8_t *&p, const std::uint8_t *end,
                  std::uint64_t &out)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (p < end) {
        const std::uint8_t b = *p++;
        if (shift >= 64)
            return false;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80)) {
            out = v;
            return true;
        }
        shift += 7;
    }
    return false;
}

} // namespace

TraceWriter::TraceWriter(unsigned streamCount, std::string workload,
                         std::uint64_t seed)
    : streams_(streamCount), workload_(std::move(workload)),
      seed_(seed)
{
    if (streamCount == 0)
        throw TraceError("trace writer needs at least one stream");
    // The header's name field is fixed-width; silent strncpy
    // truncation would round-trip a different workload name and
    // trip the replay-time mismatch warning against itself.
    if (workload_.size() >= workloadFieldBytes)
        throw TraceError("workload name '" + workload_ +
                         "' does not fit the trace header (max " +
                         std::to_string(workloadFieldBytes - 1) +
                         " bytes)");
}

void
TraceWriter::append(unsigned stream, const MemRef *refs, std::size_t n)
{
    Stream &s = streams_[stream];
    for (std::size_t i = 0; i < n; ++i) {
        const MemRef &ref = refs[i];
        putVarint(s.bytes,
                  zigzag(static_cast<std::int64_t>(ref.addr - s.prevAddr)));
        putVarint(s.bytes, (static_cast<std::uint64_t>(ref.instGap) << 1) |
                               (ref.isWrite ? 1 : 0));
        s.prevAddr = ref.addr;
    }
    s.count += n;
}

std::uint64_t
TraceWriter::recordCount(unsigned stream) const
{
    return streams_[stream].count;
}

void
TraceWriter::writeTo(const std::string &path) const
{
    std::vector<std::uint8_t> head;
    head.reserve(headerBytes + streams_.size() * tableEntryBytes);
    head.insert(head.end(), traceMagic, traceMagic + 8);
    putU32(head, traceVersion);
    putU32(head, static_cast<std::uint32_t>(streams_.size()));
    putU64(head, seed_);
    char name[workloadFieldBytes] = {};
    std::strncpy(name, workload_.c_str(), workloadFieldBytes - 1);
    head.insert(head.end(), name, name + workloadFieldBytes);
    putU64(head, 0); // checksum placeholder, patched below

    std::uint64_t offset =
        headerBytes + streams_.size() * tableEntryBytes;
    for (const Stream &s : streams_) {
        putU64(head, offset);
        putU64(head, s.bytes.size());
        putU64(head, s.count);
        offset += s.bytes.size();
    }

    // Whole-file checksum with the checksum field zeroed (it still
    // is at this point), patched into the header before writing.
    std::uint64_t sum = fnv1a(fnvOffsetBasis, head.data(),
                              head.size());
    for (const Stream &s : streams_)
        sum = fnv1a(sum, s.bytes.data(), s.bytes.size());
    for (int i = 0; i < 8; ++i)
        head[checksumOffset + i] =
            static_cast<std::uint8_t>(sum >> (8 * i));

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw TraceError("cannot open trace file '" + path +
                         "' for writing");
    out.write(reinterpret_cast<const char *>(head.data()),
              static_cast<std::streamsize>(head.size()));
    for (const Stream &s : streams_)
        out.write(reinterpret_cast<const char *>(s.bytes.data()),
                  static_cast<std::streamsize>(s.bytes.size()));
    out.flush();
    if (!out)
        throw TraceError("error writing trace file '" + path + "'");
}

void
captureTrace(const std::string &path, const std::string &workload,
             unsigned cores, std::uint64_t seed,
             std::uint64_t refsPerCore)
{
    TraceWriter writer(cores, workload, seed);
    std::vector<MemRef> batch(4096);
    for (unsigned c = 0; c < cores; ++c) {
        const std::unique_ptr<TraceGen> gen =
            makeWorkload(workload, c, seed);
        for (std::uint64_t done = 0; done < refsPerCore;) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(batch.size(),
                                        refsPerCore - done));
            gen->nextBatch(batch.data(), n);
            writer.append(c, batch.data(), n);
            done += n;
        }
    }
    writer.writeTo(path);
}

std::shared_ptr<const TraceFile>
TraceFile::open(const std::string &path)
{
    // shared_ptr with a private ctor: build through a local deleter-
    // friendly handle.
    std::shared_ptr<TraceFile> tf(new TraceFile());

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        throw TraceError("cannot open trace file '" + path + "'");
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        throw TraceError("cannot stat trace file '" + path + "'");
    }
    const std::size_t size = static_cast<std::size_t>(st.st_size);

    // One buffered read: the validation below touches every byte
    // anyway, so a mapping would save no I/O.
    tf->data_.resize(size);
    for (std::size_t got = 0; got < size;) {
        const ssize_t n = ::read(fd, tf->data_.data() + got, size - got);
        if (n <= 0) {
            ::close(fd);
            throw TraceError("cannot read trace file '" + path + "'");
        }
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);

    // --- Header ---------------------------------------------------
    if (size < headerBytes)
        throw TraceError("'" + path + "': truncated trace header (" +
                         std::to_string(size) + " bytes)");
    const std::uint8_t *d = tf->data_.data();
    if (std::memcmp(d, traceMagic, 8) != 0)
        throw TraceError("'" + path + "': not a TOLEOTRC trace file");
    const std::uint32_t version = getU32(d + 8);
    if (version != traceVersion)
        throw TraceError("'" + path + "': unsupported trace version " +
                         std::to_string(version));
    const std::uint32_t nstreams = getU32(d + 12);
    if (nstreams == 0)
        throw TraceError("'" + path + "': trace has zero streams");

    // Whole-file integrity: hash with the checksum field treated as
    // zero, so a corruption of *any* byte -- including the checksum
    // itself, zeroed or not -- mismatches.
    std::uint64_t sum = fnv1a(fnvOffsetBasis, d, checksumOffset);
    const std::uint8_t zeros[8] = {};
    sum = fnv1a(sum, zeros, 8);
    sum = fnv1a(sum, d + checksumOffset + 8, size - checksumOffset - 8);
    if (sum != getU64(d + checksumOffset))
        throw TraceError("'" + path +
                         "': checksum mismatch (corrupt or "
                         "tampered trace file)");

    tf->seed_ = getU64(d + 16);
    const char *name = reinterpret_cast<const char *>(d + 24);
    tf->workload_.assign(name,
                         strnlen(name, workloadFieldBytes));

    // --- Stream table ---------------------------------------------
    const std::size_t tableEnd =
        headerBytes +
        static_cast<std::size_t>(nstreams) * tableEntryBytes;
    if (size < tableEnd)
        throw TraceError("'" + path + "': truncated stream table");
    tf->streams_.resize(nstreams);
    for (std::uint32_t i = 0; i < nstreams; ++i) {
        const std::uint8_t *e = d + headerBytes +
                                static_cast<std::size_t>(i) *
                                    tableEntryBytes;
        const std::uint64_t off = getU64(e);
        const std::uint64_t len = getU64(e + 8);
        const std::uint64_t count = getU64(e + 16);
        if (off < tableEnd || off > size || len > size - off)
            throw TraceError("'" + path + "': stream " +
                             std::to_string(i) +
                             " payload outside the file");
        if (count == 0)
            throw TraceError("'" + path + "': stream " +
                             std::to_string(i) +
                             " is empty (cannot loop-replay)");
        Stream &s = tf->streams_[i];
        s.begin = d + off;
        s.end = s.begin + len;
        s.count = count;
    }

    // --- Payload validation ---------------------------------------
    // Decode each stream once: every record's two varints must
    // terminate inside the stream, instGap must fit its u32 field,
    // and the payload must hold exactly recordCount records.  After
    // this pass the replay decoder can run unchecked.
    for (std::uint32_t i = 0; i < nstreams; ++i) {
        const Stream &s = tf->streams_[i];
        const std::uint8_t *p = s.begin;
        std::uint64_t records = 0;
        while (p < s.end) {
            std::uint64_t delta, meta;
            if (!readVarintChecked(p, s.end, delta) ||
                !readVarintChecked(p, s.end, meta))
                throw TraceError("'" + path + "': stream " +
                                 std::to_string(i) +
                                 " payload is corrupt (truncated "
                                 "record " +
                                 std::to_string(records) + ")");
            if ((meta >> 1) > 0xffffffffULL)
                throw TraceError("'" + path + "': stream " +
                                 std::to_string(i) + " record " +
                                 std::to_string(records) +
                                 " has an oversized instruction gap");
            ++records;
        }
        if (records != s.count)
            throw TraceError(
                "'" + path + "': stream " + std::to_string(i) +
                " holds " + std::to_string(records) +
                " records but the table declares " +
                std::to_string(s.count));
    }
    return tf;
}

TraceReplayGen::TraceReplayGen(WorkloadInfo info,
                               std::shared_ptr<const TraceFile> trace,
                               unsigned core)
    : TraceGen(std::move(info)), trace_(std::move(trace)),
      begin_(trace_->streamBegin(core % trace_->streamCount())),
      end_(trace_->streamEnd(core % trace_->streamCount())),
      cur_(begin_)
{
}

void
TraceReplayGen::nextBatch(MemRef *out, std::size_t n)
{
    // Hot decode loop: validated payload, so no per-byte bounds
    // checks -- just the end-of-stream wrap at record granularity.
    const std::uint8_t *p = cur_;
    Addr prev = prevAddr_;
    for (std::size_t i = 0; i < n; ++i) {
        if (p == end_) {
            p = begin_;
            prev = 0;
        }
        const std::uint64_t delta = readVarint(p);
        const std::uint64_t meta = readVarint(p);
        prev += static_cast<Addr>(unzigzag(delta));
        out[i].addr = prev;
        out[i].isWrite = meta & 1;
        out[i].endsRequest = false; // @p out is reused across batches
        out[i].instGap = static_cast<std::uint32_t>(meta >> 1);
    }
    cur_ = p;
    prevAddr_ = prev;
}

} // namespace toleo
