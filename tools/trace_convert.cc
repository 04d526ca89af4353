/**
 * @file
 * trace_convert: import simple text memory traces into the TOLEOTRC
 * binary format toleo_sim --trace replays.
 *
 * Input is one reference per line -- the flat form gem5 or
 * DynamoRIO capture post-processing typically emits:
 *
 *   <addr> <R|W> [instGap]
 *
 * with fields separated by commas and/or whitespace.  Addresses are
 * decimal or 0x-hex; the access type is any token starting with
 * r/R (load) or w/W/s/S (store); the optional gap is the number of
 * non-memory instructions since the previous reference (default 0).
 * Blank lines and lines starting with '#' are skipped.  Example:
 *
 *   # addr,rw,gap
 *   0x7f2a00001040,R,3
 *   0x7f2a00001080,W,1
 *
 * With --streams N the references are dealt round-robin onto N
 * per-core streams, matching an N-core replay.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "common/logging.hh"
#include "workload/trace_file.hh"

using namespace toleo;

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options] <input.txt> <output.trc>\n"
        "\n"
        "Convert a text trace (one '<addr> <R|W> [instGap]' line per\n"
        "reference) into a TOLEOTRC binary trace for toleo_sim\n"
        "--trace.\n"
        "\n"
        "options:\n"
        "  --workload NAME  workload whose Table-2 metadata replay\n"
        "                   cells should pair the trace with; stored\n"
        "                   in the header (default: trace)\n"
        "  --streams N      deal references round-robin onto N\n"
        "                   per-core streams (default: 1)\n"
        "  --seed N         seed recorded in the header (default: 0)\n"
        "  --help           this message\n",
        argv0);
}

/** Split a line into fields at commas/whitespace, in place. */
std::size_t
splitFields(std::string &line, const char *fields[], std::size_t max)
{
    std::size_t n = 0;
    char *p = line.data();
    while (*p && n < max) {
        while (*p == ',' || std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        if (!*p)
            break;
        fields[n++] = p;
        while (*p && *p != ',' &&
               !std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        if (*p)
            *p++ = '\0';
    }
    return n;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "trace";
    std::uint64_t seed = 0;
    unsigned streams = 1;
    const char *inPath = nullptr;
    const char *outPath = nullptr;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("%s requires an argument", argv[i]);
            return argv[++i];
        };
        if (!std::strcmp(arg, "--workload")) {
            workload = next();
        } else if (!std::strcmp(arg, "--streams")) {
            // Digits only: strtoul would silently wrap '-1' to
            // 4294967295 and allocate that many streams.
            const char *val = next();
            char *end = nullptr;
            const unsigned long long n =
                std::isdigit(static_cast<unsigned char>(val[0]))
                    ? std::strtoull(val, &end, 10)
                    : 0;
            constexpr unsigned long long maxStreams = 1u << 16;
            if (!end || end == val || *end != '\0' || n == 0 ||
                n > maxStreams)
                fatal("--streams wants 1..%llu, got '%s'",
                      maxStreams, val);
            streams = static_cast<unsigned>(n);
        } else if (!std::strcmp(arg, "--seed")) {
            // Digits only, like --streams: no silent 0 on garbage
            // or '-1' wraparound.
            const char *val = next();
            char *end = nullptr;
            seed = std::isdigit(static_cast<unsigned char>(val[0]))
                       ? std::strtoull(val, &end, 10)
                       : 0;
            if (!end || end == val || *end != '\0')
                fatal("--seed wants an unsigned integer, got '%s'",
                      val);
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(argv[0]);
            return 0;
        } else if (arg[0] == '-') {
            usage(argv[0]);
            fatal("unknown option '%s'", arg);
        } else if (!inPath) {
            inPath = arg;
        } else if (!outPath) {
            outPath = arg;
        } else {
            fatal("unexpected extra argument '%s'", arg);
        }
    }
    if (!inPath || !outPath) {
        usage(argv[0]);
        fatal("need an input and an output path");
    }

    std::ifstream in(inPath);
    if (!in)
        fatal("cannot open input trace '%s'", inPath);

    TraceWriter writer = [&] {
        try {
            return TraceWriter(streams, workload, seed);
        } catch (const TraceError &e) {
            fatal("%s", e.what());
        }
    }();
    std::string line;
    std::uint64_t lineno = 0;
    std::uint64_t records = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const char *fields[4];
        // Strip comments before tokenizing.
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        const std::size_t n = splitFields(line, fields, 4);
        if (n == 0)
            continue;
        // Reject extra fields too: silently dropping them would
        // import a corrupted trace from e.g. two joined records.
        if (n < 2 || n > 3)
            fatal("%s:%llu: expected '<addr> <R|W> [gap]'", inPath,
                  static_cast<unsigned long long>(lineno));

        char *end = nullptr;
        MemRef ref;
        // Decimal or 0x-hex, as documented.  Not strtoull base 0
        // (zero-padded decimal would silently read as octal), and
        // digits only (strtoull would silently wrap a '-' sign).
        const bool hex = fields[0][0] == '0' &&
                         (fields[0][1] == 'x' || fields[0][1] == 'X');
        if (!std::isdigit(static_cast<unsigned char>(fields[0][0])))
            end = const_cast<char *>(fields[0]);
        else
            ref.addr = std::strtoull(fields[0], &end, hex ? 16 : 10);
        if (end == fields[0] || *end != '\0')
            fatal("%s:%llu: bad address '%s'", inPath,
                  static_cast<unsigned long long>(lineno), fields[0]);

        const char rw = fields[1][0];
        if (rw == 'r' || rw == 'R')
            ref.isWrite = false;
        else if (rw == 'w' || rw == 'W' || rw == 's' || rw == 'S')
            ref.isWrite = true;
        else
            fatal("%s:%llu: bad access type '%s' (want R or W)",
                  inPath, static_cast<unsigned long long>(lineno),
                  fields[1]);

        if (n == 3) {
            // Digits only, like the address: a '-' gap would wrap
            // through strtoull and can land inside the u32 range.
            const unsigned long long gap =
                std::isdigit(static_cast<unsigned char>(fields[2][0]))
                    ? std::strtoull(fields[2], &end, 10)
                    : (end = const_cast<char *>(fields[2]), 0);
            if (end == fields[2] || *end != '\0' || gap > 0xffffffffULL)
                fatal("%s:%llu: bad instruction gap '%s'", inPath,
                      static_cast<unsigned long long>(lineno),
                      fields[2]);
            ref.instGap = static_cast<std::uint32_t>(gap);
        }

        writer.append(static_cast<unsigned>(records % streams), &ref,
                      1);
        ++records;
    }
    if (records < streams)
        fatal("input has %llu references but --streams %u needs at "
              "least one per stream",
              static_cast<unsigned long long>(records), streams);

    try {
        writer.writeTo(outPath);
    } catch (const TraceError &e) {
        fatal("%s", e.what());
    }
    std::fprintf(stderr, "%s: %llu references -> %s (%u streams)\n",
                 inPath, static_cast<unsigned long long>(records),
                 outPath, streams);
    return 0;
}
