/**
 * @file
 * toleo_lint: determinism guard-rail static checker.
 *
 * Every headline result of this reproduction rests on fixed-seed
 * statsToJson output being bit-identical across runs, --jobs counts,
 * record/replay, and rack decompositions.  The golden fixtures catch
 * a determinism bug after the fact; this tool bans the *classes* of
 * bug that have already bitten the tree (the PR 4 float->unsigned UB
 * cast, the PR 2 stats leaks) before they compile:
 *
 *   nondeterminism      banned entropy/time sources (std::rand,
 *                       time(), *_clock::now, std::this_thread,
 *                       getenv, random_device)
 *   unordered-iteration iterating std::unordered_{map,set} in a file
 *                       that also touches stats serialization, and
 *                       pointer-valued map/set keys anywhere
 *   unclamped-cast      static_cast/functional casts of floating
 *                       expressions to unsigned integers without an
 *                       adjacent clamp (the PR 4 bug shape)
 *   stats-serialization every SimStats/RackStats/RackNodeStats field
 *                       must appear in statsToJson/rackStatsToJson,
 *                       and every scalar stats field in the CSV
 *                       emitters (statsCsvRow, rackCsvRow)
 *   include-convention  quoted #includes must be src-relative or
 *                       repo-root-relative (subsumes the old
 *                       tests/check_includes.cmake)
 *   struct-init         scalar members of Config/Options/Stats
 *                       structs must carry in-class initializers
 *   raw-thread          std::thread/std::async/pthread_create outside
 *                       the one sanctioned pool (sim/intra_pool);
 *                       new parallelism must preserve deterministic
 *                       replay
 *   unused-suppression  allow() comments that suppressed nothing
 *                       (run after the other requested rules)
 *
 * A justified site is annotated, never globally silenced:
 *
 *   // toleo-lint: allow(<rule>[, <rule>...])
 *
 * on the offending line or the line directly above suppresses that
 * rule there.  Each rule family runs as its own ctest case
 * (lint_<rule>), plus lint_self_test, which feeds known-bad snippets
 * through every rule and fails if any rule has gone blind.  The tree
 * is loaded and stripped once per process; --rule accepts comma lists
 * so one invocation can run any subset.
 *
 * No rule checks that the concurrent private phase leaves shared
 * state alone: that phase runs in a FrontEnd (sim/front_end.hh),
 * which holds no handle to shared state, so the types enforce it.
 *
 * The scanner skips its own directory (tools/toleo_lint): this file
 * necessarily names every banned pattern in its rule tables.
 */

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------
// Source model: raw text, comment/string-stripped text, line offsets,
// the suppression-comment parser, and the finding sink.
// ---------------------------------------------------------------------

struct Finding
{
    std::string file;
    std::size_t line = 0;
    std::string rule;
    std::string message;
};

/** One scanned translation unit: raw text, stripped text, and the
 *  per-line suppression sets parsed from toleo-lint comments. */
struct SourceFile
{
    std::string path; ///< display path (relative to the scan root)
    std::vector<std::string> raw;
    /** Comment and string-literal contents blanked, line structure
     *  preserved, so rules never fire on prose or log messages. */
    std::vector<std::string> code;
    /** code lines joined with '\n' (for multi-line regex scans). */
    std::string joined;
    /** Byte offset of each line within joined. */
    std::vector<std::size_t> lineOffset;
    /** line -> rule -> line of the allow() comment granting it. */
    std::map<std::size_t, std::map<std::string, std::size_t>> allow;

    /** One allow() grant as written (for unused-suppression). */
    struct AllowSite
    {
        std::size_t line = 0;
        std::string rule;
    };
    std::vector<AllowSite> allowSites;

    std::size_t
    lineOfOffset(std::size_t off) const
    {
        auto it =
            std::upper_bound(lineOffset.begin(), lineOffset.end(), off);
        return static_cast<std::size_t>(it - lineOffset.begin());
    }
};

/**
 * Finding sink.  emit() drops findings suppressed by an adjacent
 * `// toleo-lint: allow(<rule>)` comment and remembers which allow()
 * grants earned their keep, so the unused-suppression pass can report
 * the ones that suppressed nothing.
 */
class Linter
{
  public:
    void
    emit(const SourceFile &sf, std::size_t line, const std::string &rule,
         const std::string &message)
    {
        auto it = sf.allow.find(line);
        if (it != sf.allow.end()) {
            auto rit = it->second.find(rule);
            if (rit != it->second.end()) {
                usedAllows.insert({sf.path, rit->second, rule});
                return;
            }
        }
        findings.push_back({sf.path, line, rule, message});
    }

    bool
    allowUsed(const SourceFile &sf, const SourceFile::AllowSite &site) const
    {
        return usedAllows.count({sf.path, site.line, site.rule}) != 0;
    }

    std::vector<Finding> findings;

  private:
    /** (path, allow-comment line, rule) grants that suppressed
     *  at least one finding. */
    std::set<std::tuple<std::string, std::size_t, std::string>>
        usedAllows;
};

/** Blank comments and string/char literal contents, preserving line
 *  breaks so findings keep their line numbers. */
std::string
stripCommentsAndStrings(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    enum class St { Code, Line, Block, Str, Chr, Raw };
    St st = St::Code;
    std::string rawDelim;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out += "  ";
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out += "  ";
                ++i;
            } else if (c == 'R' && n == '"' &&
                       (i == 0 || (!std::isalnum(static_cast<unsigned
                                                     char>(text[i - 1])) &&
                                   text[i - 1] != '_'))) {
                // R"delim( ... )delim"
                std::size_t p = i + 2;
                rawDelim.clear();
                while (p < text.size() && text[p] != '(')
                    rawDelim += text[p++];
                rawDelim = ")" + rawDelim + "\"";
                st = St::Raw;
                out += "R\"";
                out.append(p - (i + 1), ' ');
                i = p; // at '('
            } else if (c == '"') {
                st = St::Str;
                out += c;
            } else if (c == '\'') {
                st = St::Chr;
                out += c;
            } else {
                out += c;
            }
            break;
        case St::Line:
            if (c == '\n') {
                st = St::Code;
                out += c;
            } else {
                out += ' ';
            }
            break;
        case St::Block:
            if (c == '*' && n == '/') {
                st = St::Code;
                out += "  ";
                ++i;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Str:
            if (c == '\\') {
                out += "  ";
                ++i;
            } else if (c == '"') {
                st = St::Code;
                out += c;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        case St::Chr:
            if (c == '\\') {
                out += "  ";
                ++i;
            } else if (c == '\'') {
                st = St::Code;
                out += c;
            } else {
                out += ' ';
            }
            break;
        case St::Raw:
            if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
                out += rawDelim;
                i += rawDelim.size() - 1;
                st = St::Code;
            } else {
                out += c == '\n' ? '\n' : ' ';
            }
            break;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

SourceFile
makeSourceFile(std::string display, const std::string &text)
{
    SourceFile sf;
    sf.path = std::move(display);
    sf.raw = splitLines(text);
    sf.joined = stripCommentsAndStrings(text);
    sf.code = splitLines(sf.joined);
    sf.lineOffset.reserve(sf.code.size());
    std::size_t off = 0;
    for (const auto &l : sf.code) {
        sf.lineOffset.push_back(off);
        off += l.size() + 1;
    }

    // Parse suppression comments from the raw text: an allow() on a
    // line covers that line and the next, so a comment line can
    // annotate the declaration below it.
    static const std::regex allowRe(
        "toleo-lint:\\s*allow\\(([A-Za-z0-9_, -]+)\\)");
    for (std::size_t i = 0; i < sf.raw.size(); ++i) {
        for (auto it = std::sregex_iterator(sf.raw[i].begin(),
                                            sf.raw[i].end(), allowRe);
             it != std::sregex_iterator(); ++it) {
            std::stringstream ss((*it)[1].str());
            std::string rule;
            while (std::getline(ss, rule, ',')) {
                rule.erase(0, rule.find_first_not_of(" \t"));
                rule.erase(rule.find_last_not_of(" \t") + 1);
                if (rule.empty())
                    continue;
                sf.allow[i + 1].emplace(rule, i + 1);
                sf.allow[i + 2].emplace(rule, i + 1);
                sf.allowSites.push_back({i + 1, rule});
            }
        }
    }
    return sf;
}

// ---------------------------------------------------------------------
// Rule: nondeterminism
// ---------------------------------------------------------------------

void
ruleNondeterminism(const std::vector<SourceFile> &files, Linter &lint)
{
    struct Pat
    {
        std::regex re;
        const char *what;
    };
    static const std::vector<Pat> pats = {
        {std::regex(R"(std\s*::\s*rand\b)"),
         "std::rand is unseeded global state; use toleo::Rng"},
        {std::regex(R"((^|[^\w:.>])s?rand\s*\()"),
         "rand()/srand() is unseeded global state; use toleo::Rng"},
        {std::regex(R"((^|[^\w:.>])time\s*\()"),
         "time() is wall-clock input; simulations must not read it"},
        {std::regex(
             R"((steady_clock|system_clock|high_resolution_clock)\s*::\s*now)"),
         "clock reads are nondeterministic; only wall-time telemetry "
         "may use them (annotate the justified site)"},
        {std::regex(R"(std\s*::\s*this_thread)"),
         "std::this_thread (sleep/yield) makes timing part of the "
         "result"},
        {std::regex(R"(\brandom_device\b)"),
         "std::random_device is an entropy source; seed toleo::Rng "
         "explicitly"},
        {std::regex(R"((^|[^\w:.>])getenv\s*\(|std\s*::\s*getenv\b)"),
         "environment reads belong in whitelisted entry points only "
         "(annotate the justified site)"},
    };
    for (const auto &sf : files) {
        for (std::size_t i = 0; i < sf.code.size(); ++i) {
            for (const auto &p : pats) {
                if (std::regex_search(sf.code[i], p.re))
                    lint.emit(sf, i + 1, "nondeterminism", p.what);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: unordered-iteration
// ---------------------------------------------------------------------

void
ruleUnorderedIteration(const std::vector<SourceFile> &files, Linter &lint)
{
    static const std::regex statsRe(
        R"(\b(SimStats|RackStats|RackNodeStats|ServingStats|statsToJson|rackStatsToJson|servingStatsToJson|statsCsvRow)\b)");
    static const std::regex declRe(
        R"(unordered_(?:map|set)\s*<[^;{}()]*>\s+(\w+)\s*[;{=])");
    static const std::regex ptrKeyRe(
        R"((?:\bstd\s*::\s*|\bunordered_)(?:map|set)\s*<\s*(?:const\s+)?\w[\w:]*\s*\*)");

    for (const auto &sf : files) {
        // Pointer-valued keys hash/compare by address -- iteration
        // order then depends on the allocator.  Banned everywhere.
        for (std::size_t i = 0; i < sf.code.size(); ++i) {
            if (std::regex_search(sf.code[i], ptrKeyRe))
                lint.emit(sf, i + 1, "unordered-iteration",
                          "pointer-valued map/set key: ordering "
                          "depends on allocation addresses");
        }

        // Iterating an unordered container is only a hazard where the
        // result can reach serialized stats output.
        if (!std::regex_search(sf.joined, statsRe))
            continue;
        std::set<std::string> names;
        for (auto it = std::sregex_iterator(sf.joined.begin(),
                                            sf.joined.end(), declRe);
             it != std::sregex_iterator(); ++it)
            names.insert((*it)[1].str());
        for (const auto &name : names) {
            const std::regex iterRe(
                "for\\s*\\([^;)]*:\\s*" + name + "\\b|\\b" + name +
                "\\s*\\.\\s*(begin|cbegin|rbegin)\\s*\\(");
            for (std::size_t i = 0; i < sf.code.size(); ++i) {
                if (std::regex_search(sf.code[i], iterRe))
                    lint.emit(sf, i + 1, "unordered-iteration",
                              "iterating unordered container '" + name +
                                  "' in a file that feeds stats "
                                  "serialization: order is "
                                  "implementation-defined");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: unclamped-cast
// ---------------------------------------------------------------------

/** Heuristic: does this cast operand look floating-valued? */
bool
looksFloating(const std::string &expr)
{
    static const std::regex floatish(
        R"((\b\d+\.\d*|\B\.\d+)|\b(double|float)\b|\b(ceil|floor|round|lround|trunc|pow|sqrt|exp|log|log2|fma)\s*\(|\bnext(Double|Gaussian)\s*\(|[a-z](Ns|Gbps|GBps|Ghz|GHz|Fraction|Seconds|Ratio)\b)");
    return std::regex_search(expr, floatish);
}

void
ruleUnclampedCast(const std::vector<SourceFile> &files, Linter &lint)
{
    // static_cast<unsigned...>( and functional std::uintN_t( casts.
    static const std::regex castRe(
        R"(static_cast\s*<\s*(?:std\s*::\s*)?(unsigned(?:\s+(?:char|short|int|long))?(?:\s+long)?|u?int(?:8|16|32|64)_t|size_t|uintptr_t)\s*>\s*\(|\b(?:std\s*::\s*)?uint(?:8|16|32|64)_t\s*\()");
    static const std::regex clampRe(
        R"(\b(?:std\s*::\s*)?(min|max|clamp|isfinite)\s*[<(])");

    for (const auto &sf : files) {
        for (auto it = std::sregex_iterator(sf.joined.begin(),
                                            sf.joined.end(), castRe);
             it != std::sregex_iterator(); ++it) {
            // Extract the balanced-paren operand.
            std::size_t open = static_cast<std::size_t>(it->position()) +
                               static_cast<std::size_t>(it->length()) - 1;
            int depth = 1;
            std::size_t p = open + 1;
            while (p < sf.joined.size() && depth > 0) {
                if (sf.joined[p] == '(')
                    ++depth;
                else if (sf.joined[p] == ')')
                    --depth;
                ++p;
            }
            const std::string expr =
                sf.joined.substr(open + 1, p - open - 2);
            if (!looksFloating(expr))
                continue;

            const std::size_t line =
                sf.lineOfOffset(static_cast<std::size_t>(it->position()));
            const std::size_t endLine = sf.lineOfOffset(p);
            // An adjacent clamp (within two lines either side of the
            // cast expression) is the accepted guard shape.
            const std::size_t lo = line > 2 ? line - 2 : 1;
            const std::size_t hi =
                std::min(endLine + 2, sf.code.size());
            bool clamped = false;
            for (std::size_t l = lo; l <= hi && !clamped; ++l)
                clamped = std::regex_search(sf.code[l - 1], clampRe);
            if (!clamped)
                lint.emit(sf, line, "unclamped-cast",
                          "floating expression cast to unsigned "
                          "integer without an adjacent clamp "
                          "(std::min/max/clamp/isfinite): UB for "
                          "negative or over-range values");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: stats-serialization
// ---------------------------------------------------------------------

struct StructField
{
    std::string name;
    std::string type;
    const SourceFile *file = nullptr;
    std::size_t line = 0;
    bool scalar = false;
};

/** Find "struct <name>" and return its brace-matched body text plus
 *  per-field declarations parsed at depth 1. */
bool
parseStruct(const std::vector<SourceFile> &files, const std::string &name,
            std::vector<StructField> &out)
{
    const std::regex defRe("\\bstruct\\s+" + name + "\\b[^;{]*\\{");
    static const std::regex scalarRe(
        R"(^(?:const\s+)?(bool|char|short|int|long|unsigned|float|double|(?:std\s*::\s*)?u?int(?:8|16|32|64)_t|(?:std\s*::\s*)?size_t|Cycles|Addr|BlockNum|PageNum|Tick|EngineKind|Pattern|(?:std\s*::\s*)?string)\b)");
    for (const auto &sf : files) {
        std::smatch m;
        if (!std::regex_search(sf.joined, m, defRe))
            continue;
        std::size_t p = static_cast<std::size_t>(m.position()) +
                        static_cast<std::size_t>(m.length());
        int depth = 1;
        std::string decl;
        while (p < sf.joined.size() && depth > 0) {
            const char c = sf.joined[p];
            if (c == '{' || c == '(') {
                ++depth;
            } else if (c == '}' || c == ')') {
                --depth;
                if (depth == 0)
                    break;
            } else if (c == ';' && depth == 1) {
                // One declaration complete.
                std::string d = decl;
                decl.clear();
                // Trim.
                const auto b = d.find_first_not_of(" \t\n");
                if (b == std::string::npos) {
                    ++p;
                    continue;
                }
                d = d.substr(b);
                // Skip functions/usings/access/static members.
                if (d.find('(') == std::string::npos &&
                    d.rfind("using", 0) != 0 &&
                    d.rfind("static", 0) != 0 &&
                    d.rfind("struct", 0) != 0 &&
                    d.rfind("enum", 0) != 0 && !d.empty()) {
                    static const std::regex fieldRe(
                        R"(([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?(=[^;]*|\{[^;]*\})?$)");
                    std::smatch fm;
                    std::string flat;
                    for (char ch : d)
                        flat += ch == '\n' ? ' ' : ch;
                    // Strip a trailing initializer for name matching.
                    const auto eq = flat.find('=');
                    std::string head =
                        eq == std::string::npos ? flat
                                                : flat.substr(0, eq);
                    while (!head.empty() &&
                           std::isspace(static_cast<unsigned char>(
                               head.back())))
                        head.pop_back();
                    if (std::regex_search(head, fm, fieldRe)) {
                        StructField f;
                        f.name = fm[1].str();
                        f.type = flat;
                        f.file = &sf;
                        // Report at the semicolon's line: the last
                        // line of the declaration, where the
                        // initializer would go.
                        f.line = sf.lineOfOffset(p);
                        f.scalar =
                            std::regex_search(flat, scalarRe) &&
                            flat.find('<') == std::string::npos;
                        out.push_back(std::move(f));
                    }
                }
                ++p;
                continue;
            }
            decl += c;
            ++p;
        }
        return true;
    }
    return false;
}

/** Brace-matched body of function <name>(...) { ... } if defined in
 *  any scanned file. */
std::string
functionBody(const std::vector<SourceFile> &files, const std::string &name)
{
    const std::regex defRe("\\b" + name + "\\s*\\([^;{)]*\\)\\s*\\{");
    for (const auto &sf : files) {
        std::smatch m;
        if (!std::regex_search(sf.joined, m, defRe))
            continue;
        std::size_t p = static_cast<std::size_t>(m.position()) +
                        static_cast<std::size_t>(m.length());
        int depth = 1;
        const std::size_t start = p;
        while (p < sf.joined.size() && depth > 0) {
            if (sf.joined[p] == '{')
                ++depth;
            else if (sf.joined[p] == '}')
                --depth;
            ++p;
        }
        return sf.joined.substr(start, p - start - 1);
    }
    return "";
}

void
checkFieldsSerialized(const std::vector<SourceFile> &files, Linter &lint,
                      const std::string &structName,
                      const std::string &fnName, bool scalarOnly)
{
    std::vector<StructField> fields;
    if (!parseStruct(files, structName, fields)) {
        // Struct not present in this corpus (self-test snippets):
        // nothing to check.
        return;
    }
    const std::string body = functionBody(files, fnName);
    if (body.empty()) {
        if (!fields.empty() && fields.front().file)
            lint.emit(*fields.front().file, fields.front().line,
                      "stats-serialization",
                      "serializer " + fnName + "() for " + structName +
                          " not found in the scanned tree");
        return;
    }
    for (const auto &f : fields) {
        if (scalarOnly && !f.scalar)
            continue;
        const std::regex useRe("[.>]\\s*" + f.name + "\\b");
        if (!std::regex_search(body, useRe))
            lint.emit(*f.file, f.line, "stats-serialization",
                      structName + "::" + f.name +
                          " is never serialized by " + fnName +
                          "(): adding a stat without serializing it "
                          "silently drops it from every report");
    }
}

void
ruleStatsSerialization(const std::vector<SourceFile> &files, Linter &lint)
{
    // JSON serializers must cover every field; the CSV emitters are
    // documented scalar-only, so compound fields are exempt there.
    checkFieldsSerialized(files, lint, "SimStats", "statsToJson", false);
    checkFieldsSerialized(files, lint, "SimStats", "statsCsvRow", true);
    checkFieldsSerialized(files, lint, "RackNodeStats",
                          "rackStatsToJson", false);
    checkFieldsSerialized(files, lint, "RackStats", "rackStatsToJson",
                          false);
    checkFieldsSerialized(files, lint, "ServingStats",
                          "servingStatsToJson", false);
    // CSV coverage: a new serving or rack stat must not silently miss
    // the CSV reports just because the JSON path carries it.
    checkFieldsSerialized(files, lint, "ServingStats", "statsCsvRow",
                          true);
    checkFieldsSerialized(files, lint, "RackNodeStats", "rackCsvRow",
                          true);
    checkFieldsSerialized(files, lint, "RackStats", "rackCsvRow", true);
}

// ---------------------------------------------------------------------
// Rule: include-convention
// ---------------------------------------------------------------------

void
ruleIncludeConvention(const std::vector<SourceFile> &files, Linter &lint)
{
    // Quoted includes must resolve against one of the two include
    // roots the build defines: src-relative for library headers
    // ("common/logging.hh") or repo-root-relative outside src/
    // ("bench/bench_util.hh").
    // Anything else compiles only by accident of the including file's
    // directory.
    static const std::set<std::string> allowed = {
        "cache", "common", "crypto",   "mem",   "secmem",
        "sim",   "toleo",  "workload", "bench", "tools"};
    static const std::regex incRe(
        R"re(^\s*#\s*include\s+"([^"]+)")re");
    for (const auto &sf : files) {
        for (std::size_t i = 0; i < sf.raw.size(); ++i) {
            std::smatch m;
            if (!std::regex_search(sf.raw[i], m, incRe))
                continue;
            const std::string path = m[1].str();
            const auto slash = path.find('/');
            const std::string prefix =
                slash == std::string::npos ? std::string()
                                           : path.substr(0, slash);
            if (!allowed.count(prefix))
                lint.emit(sf, i + 1, "include-convention",
                          "#include \"" + path +
                              "\" is not src-relative or "
                              "repo-root-relative");
        }
    }
}

// ---------------------------------------------------------------------
// Rule: struct-init
// ---------------------------------------------------------------------

void
ruleStructInit(const std::vector<SourceFile> &files, Linter &lint)
{
    // Config/stats structs are aggregate-initialized all over the
    // tree; one bare scalar member means whichever site forgets to
    // set it reads indeterminate garbage -- a nondeterminism source
    // the sanitizers only catch if the branch executes.
    static const std::regex nameRe(
        R"(\bstruct\s+(\w*(?:Config|Options|Stats))\b)");
    for (const auto &sf : files) {
        for (auto it = std::sregex_iterator(sf.joined.begin(),
                                            sf.joined.end(), nameRe);
             it != std::sregex_iterator(); ++it) {
            const std::string structName = (*it)[1].str();
            std::vector<StructField> fields;
            if (!parseStruct(files, structName, fields))
                continue;
            for (const auto &f : fields) {
                if (f.file != &sf)
                    continue;
                const bool ptr =
                    f.type.find('*') != std::string::npos;
                const bool isString =
                    f.type.find("string") != std::string::npos;
                if (!ptr && (!f.scalar || isString))
                    continue; // class types default-construct safely
                const bool hasInit =
                    f.type.find('=') != std::string::npos ||
                    f.type.find('{') != std::string::npos;
                if (!hasInit)
                    lint.emit(sf, f.line, "struct-init",
                              structName + "::" + f.name +
                                  " has no in-class initializer: "
                                  "aggregate users that omit it read "
                                  "indeterminate garbage");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rule: raw-thread
// ---------------------------------------------------------------------

void
ruleRawThread(const std::vector<SourceFile> &files, Linter &lint)
{
    // Threading is only compatible with the determinism contract
    // here because the one pool preserves the replay structure:
    // IntraPool (sim/intra_pool) runs sweep cells, rack nodes' private
    // halves and per-core private phases, bodies that share no
    // mutable state but one: the mutex-guarded Zipf normalization
    // memo (common/rng.cc), whose every value is a pure function of
    // its key.  So no work assignment can reach the results.  A
    // raw std::thread anywhere else has no such argument attached, so
    // it is banned: route new parallelism through the pool (or
    // extend this sanctioned list with the accompanying reasoning).
    static const std::vector<std::string> sanctioned = {
        "src/sim/intra_pool.hh",
        "src/sim/intra_pool.cc",
    };
    // hardware_concurrency() is a capacity query, not a spawn.
    static const std::regex threadRe(
        R"(std\s*::\s*j?thread\b(?!\s*::\s*hardware_concurrency))");
    static const std::regex spawnRe(
        R"(\bpthread_create\b|std\s*::\s*async\b)");
    for (const auto &sf : files) {
        if (std::find(sanctioned.begin(), sanctioned.end(), sf.path) !=
            sanctioned.end())
            continue;
        for (std::size_t i = 0; i < sf.code.size(); ++i) {
            if (std::regex_search(sf.code[i], threadRe) ||
                std::regex_search(sf.code[i], spawnRe))
                lint.emit(sf, i + 1, "raw-thread",
                          "raw thread spawn outside the sanctioned "
                          "pool: new parallelism must go through "
                          "IntraPool (sim/intra_pool) so the "
                          "deterministic-replay structure survives");
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

using RuleFn =
    std::function<void(const std::vector<SourceFile> &, Linter &)>;

const std::vector<std::pair<std::string, RuleFn>> &
ruleTable()
{
    static const std::vector<std::pair<std::string, RuleFn>> rules = {
        {"nondeterminism", ruleNondeterminism},
        {"unordered-iteration", ruleUnorderedIteration},
        {"unclamped-cast", ruleUnclampedCast},
        {"stats-serialization", ruleStatsSerialization},
        {"include-convention", ruleIncludeConvention},
        {"struct-init", ruleStructInit},
        {"raw-thread", ruleRawThread},
    };
    return rules;
}

/** The meta-rule: reported after the others, never in the table. */
const char *const kUnusedSuppression = "unused-suppression";

std::vector<std::string>
allRuleNames()
{
    std::vector<std::string> names;
    for (const auto &[name, fn] : ruleTable())
        names.push_back(name);
    names.push_back(kUnusedSuppression);
    return names;
}

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    return std::find(v.begin(), v.end(), s) != v.end();
}

/**
 * Run the requested rules over an already-loaded tree and return the
 * findings filtered to @p reportSet.  When unused-suppression is
 * requested, every table rule runs first (an allow() can only be
 * judged unused once everything it could suppress has fired), but
 * only @p reportSet findings are returned -- that keeps per-rule
 * ctest granularity cheap on top of a single load/strip pass.
 */
std::vector<Finding>
runRuleSet(const std::vector<SourceFile> &files,
           const std::vector<std::string> &reportSet)
{
    const bool wantUnused = contains(reportSet, kUnusedSuppression);
    Linter lint;
    std::vector<std::string> ran;
    for (const auto &[name, fn] : ruleTable()) {
        if (!wantUnused && !contains(reportSet, name))
            continue;
        fn(files, lint);
        ran.push_back(name);
    }
    if (wantUnused) {
        const std::vector<std::string> known = allRuleNames();
        for (const auto &sf : files) {
            for (const auto &site : sf.allowSites) {
                if (!contains(known, site.rule)) {
                    lint.emit(sf, site.line, kUnusedSuppression,
                              "allow(" + site.rule +
                                  ") references an unknown rule");
                    continue;
                }
                if (site.rule != kUnusedSuppression &&
                    !contains(ran, site.rule))
                    continue;
                if (!lint.allowUsed(sf, site))
                    lint.emit(sf, site.line, kUnusedSuppression,
                              "allow(" + site.rule +
                                  ") suppressed nothing: remove the "
                                  "stale annotation");
            }
        }
    }
    std::vector<Finding> out;
    for (const auto &f : lint.findings)
        if (contains(reportSet, f.rule))
            out.push_back(f);
    return out;
}

bool
isSourceExt(const fs::path &p)
{
    const std::string e = p.extension().string();
    return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".hpp";
}

std::vector<SourceFile>
loadTree(const fs::path &root)
{
    std::vector<SourceFile> files;
    static const std::vector<std::string> dirs = {
        "src", "tools", "bench", "examples", "tests"};
    for (const auto &d : dirs) {
        const fs::path base = root / d;
        if (!fs::exists(base))
            continue;
        for (auto it = fs::recursive_directory_iterator(base);
             it != fs::recursive_directory_iterator(); ++it) {
            // The linter's own sources necessarily spell out every
            // banned pattern; scanning them would be self-flagging.
            if (it->is_directory() &&
                it->path().filename() == "toleo_lint") {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file() || !isSourceExt(it->path()))
                continue;
            std::ifstream in(it->path());
            std::stringstream ss;
            ss << in.rdbuf();
            files.push_back(makeSourceFile(
                fs::relative(it->path(), root).string(), ss.str()));
        }
    }
    std::sort(files.begin(), files.end(),
              [](const SourceFile &a, const SourceFile &b) {
                  return a.path < b.path;
              });
    return files;
}

int
runRules(const std::vector<SourceFile> &files,
         const std::vector<std::string> &requested)
{
    const std::vector<std::string> reportSet =
        requested.empty() ? allRuleNames() : requested;
    const std::vector<Finding> findings = runRuleSet(files, reportSet);
    for (const auto &f : findings)
        std::cerr << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message << "\n";
    if (!findings.empty()) {
        std::cerr << "toleo_lint: " << findings.size()
                  << " finding(s)\n";
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------------
// Self-test: every rule must fire on its known-bad snippet and stay
// quiet once the snippet carries an allow() annotation.
// ---------------------------------------------------------------------

struct SelfCase
{
    std::string rule;
    /** Extra virtual files making up the case, path -> contents. */
    std::vector<std::pair<std::string, std::string>> files;
};

const std::vector<SelfCase> &
selfCases()
{
    static const std::vector<SelfCase> cases = {
        {"nondeterminism",
         {{"src/bad.cc", "int f() { return std::rand(); }\n"
                         "long g() { return time(nullptr); }\n"
                         "void h() { auto t = "
                         "std::chrono::steady_clock::now(); (void)t; }\n"}}},
        {"unordered-iteration",
         {{"src/bad.cc",
           "#include <unordered_map>\n"
           "void serialize(SimStats &s);\n"
           "std::unordered_map<int, int> tab;\n"
           "void f() { for (auto &kv : tab) { (void)kv; } }\n"},
          {"src/worse.hh",
           "#include <map>\n"
           "std::map<Foo *, int> byPtr;\n"}}},
        {"unclamped-cast",
         {{"src/bad.cc",
           "unsigned f(double x) { return "
           "static_cast<unsigned>(x * 1.5); }\n"}}},
        {"stats-serialization",
         {{"src/bad.hh", "struct SimStats {\n"
                         "    std::uint64_t refs = 0;\n"
                         "    double newStat = 0.0;\n"
                         "};\n"},
          {"src/bad.cc",
           "Json statsToJson(const SimStats &stats) {\n"
           "    Json j;\n"
           "    j[\"refs\"] = stats.refs;\n"
           "    return j;\n"
           "}\n"
           "std::string statsCsvRow(const SimStats &stats) {\n"
           "    return std::to_string(stats.refs);\n"
           "}\n"}}},
        // The serving-stats serializer is covered by the same
        // field-completeness sweep: a ServingStats field that
        // servingStatsToJson() never touches must fire.
        {"stats-serialization",
         {{"src/bad2.hh", "struct ServingStats {\n"
                          "    std::uint64_t requests = 0;\n"
                          "    double droppedStat = 0.0;\n"
                          "};\n"},
          {"src/bad2.cc",
           "Json servingStatsToJson(const ServingStats &stats) {\n"
           "    Json j;\n"
           "    j[\"requests\"] = stats.requests;\n"
           "    return j;\n"
           "}\n"
           "std::string statsCsvRow(const ServingStats &stats) {\n"
           "    return std::to_string(stats.requests);\n"
           "}\n"}}},
        // CSV emitters are held to the same standard: a scalar rack
        // stat missing from rackCsvRow must fire even when the JSON
        // serializer covers it.
        {"stats-serialization",
         {{"src/bad3.hh", "struct RackStats {\n"
                          "    std::uint64_t epochs = 0;\n"
                          "    double rackOnly = 0.0;\n"
                          "};\n"},
          {"src/bad3.cc",
           "Json rackStatsToJson(const RackStats &stats) {\n"
           "    Json j;\n"
           "    j[\"epochs\"] = stats.epochs;\n"
           "    j[\"rackOnly\"] = stats.rackOnly;\n"
           "    return j;\n"
           "}\n"
           "std::string rackCsvRow(const RackStats &stats) {\n"
           "    return std::to_string(stats.epochs);\n"
           "}\n"}}},
        {"include-convention",
         {{"src/bad.cc", "#include \"../sim/system.hh\"\n"}}},
        {"struct-init",
         {{"src/bad.hh", "struct FooConfig {\n"
                         "    unsigned good = 4;\n"
                         "    double bare;\n"
                         "};\n"}}},
        {"raw-thread",
         {{"src/bad.cc",
           "#include <thread>\n"
           "void f() { std::thread t([] {}); t.join(); }\n"
           "void g() { auto r = std::async([] { return 1; }); }\n"}}},
    };
    return cases;
}

int
selfTest()
{
    int failures = 0;
    for (const auto &c : selfCases()) {
        std::vector<SourceFile> files;
        for (const auto &[path, text] : c.files)
            files.push_back(makeSourceFile(path, text));
        if (runRuleSet(files, {c.rule}).empty()) {
            std::cerr << "self-test FAIL: rule '" << c.rule
                      << "' missed its known-bad snippet ("
                      << c.files.front().first << ")\n";
            ++failures;
        }

        // The same snippets with every line annotated must be clean:
        // the suppression channel works per rule.
        std::vector<SourceFile> suppressed;
        for (const auto &[path, text] : c.files) {
            std::string annotated;
            for (const auto &l : splitLines(text))
                annotated +=
                    l + " // toleo-lint: allow(" + c.rule + ")\n";
            suppressed.push_back(makeSourceFile(path, annotated));
        }
        if (!runRuleSet(suppressed, {c.rule}).empty()) {
            std::cerr << "self-test FAIL: rule '" << c.rule
                      << "' ignored allow() suppressions ("
                      << c.files.front().first << ")\n";
            ++failures;
        }
    }

    // Unused suppressions: an allow() that suppressed nothing is
    // itself a finding, and is silenced by allow(unused-suppression)
    // on the same line.
    {
        std::vector<SourceFile> files;
        files.push_back(makeSourceFile(
            "src/stale.cc",
            "int clean() { return 1; } // toleo-lint: "
            "allow(nondeterminism)\n"));
        const auto findings =
            runRuleSet(files, {kUnusedSuppression});
        bool ok = findings.size() == 1 &&
                  findings.front().rule == kUnusedSuppression;
        if (!ok) {
            std::cerr << "self-test FAIL: unused-suppression missed a "
                         "stale allow()\n";
            ++failures;
        }
        std::vector<SourceFile> suppressed;
        suppressed.push_back(makeSourceFile(
            "src/stale.cc",
            "int clean() { return 1; } // toleo-lint: "
            "allow(nondeterminism) // toleo-lint: "
            "allow(unused-suppression)\n"));
        if (!runRuleSet(suppressed, {kUnusedSuppression}).empty()) {
            std::cerr << "self-test FAIL: unused-suppression ignored "
                         "its own allow()\n";
            ++failures;
        }
        // And a *used* allow() must not be reported.
        std::vector<SourceFile> used;
        used.push_back(makeSourceFile(
            "src/used.cc",
            "int f() { return std::rand(); } // toleo-lint: "
            "allow(nondeterminism)\n"));
        if (!runRuleSet(used, {kUnusedSuppression}).empty()) {
            std::cerr << "self-test FAIL: unused-suppression flagged a "
                         "working allow()\n";
            ++failures;
        }
    }

    if (failures == 0) {
        std::cout << "self-test OK: " << selfCases().size()
                  << " rule cases fire and suppress correctly; "
                     "unused-suppression checks hold\n";
        return 0;
    }
    return 1;
}

void
usage()
{
    std::cerr
        << "usage: toleo_lint --root DIR [--rule NAME[,NAME...]]...\n"
        << "       toleo_lint --list-rules | --self-test\n"
        << "Scans DIR/{src,tools,bench,examples,tests} for determinism\n"
        << "hazards.  The tree is loaded once; --rule filters which\n"
        << "rule families are reported.  Exit 0 = clean, 1 = findings,\n"
        << "2 = usage error.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root;
    std::vector<std::string> rules;
    bool doSelfTest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--rule" && i + 1 < argc) {
            std::stringstream ss(argv[++i]);
            std::string name;
            while (std::getline(ss, name, ','))
                if (!name.empty())
                    rules.push_back(name);
        } else if (arg == "--list-rules") {
            for (const auto &name : allRuleNames())
                std::cout << name << "\n";
            return 0;
        } else if (arg == "--self-test") {
            doSelfTest = true;
        } else {
            usage();
            return 2;
        }
    }
    if (doSelfTest)
        return selfTest();
    if (root.empty()) {
        usage();
        return 2;
    }
    const std::vector<std::string> known = allRuleNames();
    for (const auto &r : rules) {
        if (std::find(known.begin(), known.end(), r) == known.end()) {
            std::cerr << "toleo_lint: unknown rule '" << r << "'\n";
            return 2;
        }
    }
    return runRules(loadTree(root), rules);
}
