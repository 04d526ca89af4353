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
 *   phase-safety        annotation-driven call-graph analysis: code
 *                       reachable from a // toleo: phase(private)
 *                       root must not write state(shared) data,
 *                       mutate stats structs, or call phase(shared)
 *                       functions (see phase_safety.hh)
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
#include <vector>

#include "tools/toleo_lint/lint_source.hh"
#include "tools/toleo_lint/phase_safety.hh"

namespace fs = std::filesystem;

using toleo_lint::Finding;
using toleo_lint::Linter;
using toleo_lint::makeSourceFile;
using toleo_lint::PhaseReport;
using toleo_lint::SourceFile;
using toleo_lint::splitLines;

namespace {

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
    // ("bench/bench_util.hh", "tools/toleo_lint/phase_safety.hh").
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
    // mutable state, so no work assignment can reach the results.  A
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
// Rule: phase-safety
// ---------------------------------------------------------------------

/** Degradation notes from the last phase-safety run (printed by
 *  runRules; informational, never part of the exit status). */
std::vector<std::string> gPhaseWarnings;
/** Walk-coverage summary of the last phase-safety run. */
std::string gPhaseSummary;

void
rulePhaseSafety(const std::vector<SourceFile> &files, Linter &lint)
{
    // Only library code carries the phase discipline; test/bench
    // mocks would otherwise pollute the override sets.
    std::vector<SourceFile> srcFiles;
    for (const auto &sf : files)
        if (sf.path.rfind("src/", 0) == 0)
            srcFiles.push_back(sf);
    if (srcFiles.empty())
        return;
    PhaseReport rep = toleo_lint::analyzePhaseSafety(srcFiles);
    for (const auto &v : rep.violations) {
        // Map back to the caller's SourceFile so allow() grants and
        // finding paths refer to the real (unfiltered) file list.
        for (const auto &sf : files) {
            if (sf.path == v.file->path) {
                lint.emit(sf, v.line, "phase-safety", v.message);
                break;
            }
        }
    }
    for (const auto &w : rep.warnings)
        gPhaseWarnings.push_back(w.file->path + ":" +
                                 std::to_string(w.line) +
                                 ": note: [phase-safety] " + w.message);
    gPhaseSummary = "toleo_lint: phase-safety walked " +
                    std::to_string(rep.functionsWalked) +
                    " function(s) from " + std::to_string(rep.roots) +
                    " phase(private) root(s)";
    // Name every root so CI can assert a specific decomposition is
    // actually being proven (e.g. the rack node-step path), rather
    // than inferring it from a bare count.
    if (!rep.rootNames.empty()) {
        gPhaseSummary += " [roots: ";
        for (std::size_t i = 0; i < rep.rootNames.size(); ++i) {
            if (i)
                gPhaseSummary += ", ";
            gPhaseSummary += rep.rootNames[i];
        }
        gPhaseSummary += "]";
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
        {"phase-safety", rulePhaseSafety},
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
    gPhaseWarnings.clear();
    gPhaseSummary.clear();
    const std::vector<Finding> findings = runRuleSet(files, reportSet);
    if (!gPhaseSummary.empty())
        std::cerr << gPhaseSummary << "\n";
    for (const auto &w : gPhaseWarnings)
        std::cerr << w << "\n";
    if (!gPhaseWarnings.empty())
        std::cerr << "toleo_lint: " << gPhaseWarnings.size()
                  << " unknown-callee warning(s) (degraded, not "
                     "findings)\n";
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
        // --- phase-safety violation shapes -------------------------
        // Direct write to state(shared) from a phase(private) root.
        {"phase-safety",
         {{"src/phase_direct.hh",
           "struct Sys {\n"
           "  // toleo: state(shared)\n"
           "  unsigned long total_ = 0;\n"
           "  // toleo: phase(private)\n"
           "  void privateCore(unsigned core);\n"
           "};\n"
           "void Sys::privateCore(unsigned core) {\n"
           "  total_ += core;\n"
           "}\n"}}},
        // Write reached through a two-deep call chain.
        {"phase-safety",
         {{"src/phase_chain.hh",
           "struct Sys {\n"
           "  // toleo: state(shared)\n"
           "  unsigned long total_ = 0;\n"
           "  // toleo: phase(private)\n"
           "  void privateCore(unsigned core);\n"
           "  void helpA(unsigned c);\n"
           "  void helpB(unsigned c);\n"
           "};\n"
           "void Sys::privateCore(unsigned core) { helpA(core); }\n"
           "void Sys::helpA(unsigned c) { helpB(c); }\n"
           "void Sys::helpB(unsigned c) { total_ = c; }\n"}}},
        // Write reached through virtual dispatch: the root calls
        // through a base pointer; only an override is dirty.
        {"phase-safety",
         {{"src/phase_virtual.hh",
           "struct Counters {\n"
           "  // toleo: state(shared)\n"
           "  unsigned long hits = 0;\n"
           "};\n"
           "struct Gen {\n"
           "  virtual void fill();\n"
           "  virtual ~Gen();\n"
           "};\n"
           "struct BadGen : Gen {\n"
           "  Counters *shared_;\n"
           "  void fill() override;\n"
           "};\n"
           "struct Sys {\n"
           "  Gen *gen_;\n"
           "  // toleo: phase(private)\n"
           "  void run();\n"
           "};\n"
           "void Sys::run() { gen_->fill(); }\n"
           "void BadGen::fill() { shared_->hits++; }\n"}}},
        // Const-laundering: a const method reached from the private
        // phase casts constness away and writes shared state.
        {"phase-safety",
         {{"src/phase_launder.hh",
           "struct Sys {\n"
           "  // toleo: state(shared)\n"
           "  unsigned long seen_ = 0;\n"
           "  unsigned long peek() const;\n"
           "  // toleo: phase(private)\n"
           "  void probe();\n"
           "};\n"
           "void Sys::probe() { (void)peek(); }\n"
           "unsigned long Sys::peek() const {\n"
           "  const_cast<Sys *>(this)->seen_ = 1;\n"
           "  return seen_;\n"
           "}\n"}}},
        // Calling into the shared phase from the private phase.
        {"phase-safety",
         {{"src/phase_cross.hh",
           "struct Sys {\n"
           "  // toleo: phase(shared)\n"
           "  void replay();\n"
           "  // toleo: phase(private)\n"
           "  void core();\n"
           "};\n"
           "void Sys::core() { replay(); }\n"
           "void Sys::replay() {}\n"}}},
        // Non-const method call on a state(shared) member object.
        {"phase-safety",
         {{"src/phase_nonconst.hh",
           "struct Pool {\n"
           "  void reset();\n"
           "  unsigned long size() const;\n"
           "};\n"
           "struct Sys {\n"
           "  // toleo: state(shared)\n"
           "  Pool pool_;\n"
           "  // toleo: phase(private)\n"
           "  void core();\n"
           "};\n"
           "void Sys::core() { pool_.reset(); (void)pool_.size(); }\n"}}},
        // Mutating a stats struct field from the private phase.
        {"phase-safety",
         {{"src/phase_stats.hh",
           "struct SimStats { unsigned long refs = 0; };\n"
           "struct Sys {\n"
           "  SimStats stats_;\n"
           "  // toleo: phase(private)\n"
           "  void core();\n"
           "};\n"
           "void Sys::core() { stats_.refs += 1; }\n"}}},
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

    // Degradation: constructs the resolver cannot see through must
    // surface as unknown-callee warnings, never as silent certainty
    // (and never as false violations).
    {
        std::vector<SourceFile> files;
        files.push_back(makeSourceFile(
            "src/phase_macro.hh",
            "struct Sys {\n"
            "  // toleo: phase(private)\n"
            "  void core();\n"
            "};\n"
            "void Sys::core() { TOLEO_MAGIC(1); }\n"));
        PhaseReport rep = toleo_lint::analyzePhaseSafety(files);
        if (!rep.violations.empty() || rep.warnings.empty()) {
            std::cerr << "self-test FAIL: phase-safety macro call must "
                         "degrade to a warning (got "
                      << rep.violations.size() << " violations, "
                      << rep.warnings.size() << " warnings)\n";
            ++failures;
        }
    }

    // A clean, fully annotated snippet must stay silent end to end.
    {
        std::vector<SourceFile> files;
        files.push_back(makeSourceFile(
            "src/phase_clean.hh",
            "struct Sys {\n"
            "  // toleo: state(per-core)\n"
            "  unsigned long perCore_[8];\n"
            "  // toleo: state(shared)\n"
            "  unsigned long total_ = 0;\n"
            "  // toleo: phase(private)\n"
            "  void core(unsigned c);\n"
            "  // toleo: phase(shared)\n"
            "  void replay();\n"
            "};\n"
            "void Sys::core(unsigned c) { perCore_[c] += 1; }\n"
            "void Sys::replay() { total_ += 1; }\n"));
        if (!runRuleSet(files, {"phase-safety"}).empty()) {
            std::cerr << "self-test FAIL: phase-safety flagged a clean "
                         "annotated snippet\n";
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
                     "degradation, clean-tree, and unused-suppression "
                     "checks hold\n";
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
