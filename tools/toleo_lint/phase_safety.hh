/**
 * @file
 * Phase-safety static race analysis for the toleo tree.
 *
 * The repo's load-bearing invariant -- bit-identical fixed-seed stats
 * under any --threads-per-cell / --rack-threads / --jobs combination
 * -- rests on a phase discipline: every System epoch plan item has a
 * *private* half (System::runItemPrivate), which may run per-core
 * bodies concurrently (IntraPool) and whole nodes concurrently (the
 * rack pool), and a *shared* half (System::runItemShared).
 * Everything reachable from a private-phase entry point must touch
 * only core-indexed or instance-local state; all genuinely shared
 * structures are mutated only in the single-threaded shared replay.  TSan checks this discipline on the executions the test grid
 * happens to run; this pass checks it on the *code*, over every
 * app/engine combination at once.
 *
 * The source of truth is annotations in comments:
 *
 *   // toleo: phase(private)   on private-phase entry points
 *   // toleo: phase(shared)    on shared-replay-only code
 *   // toleo: state(shared)    on members shared across cores/nodes
 *   // toleo: state(per-core)  on members indexed/partitioned by core
 *
 * The analysis tokenizes every file under src/, indexes classes
 * (members, methods, bases, annotations), builds an intra-repo call
 * graph (qualified-name resolution; virtual calls fan out over the
 * indexed override set), walks everything reachable from each
 * phase(private) root, and reports:
 *
 *   - any write (or call to a non-const method) on state(shared) data,
 *   - any mutation of a SimStats/ServingStats/RackStats/RackNodeStats
 *     field,
 *   - any call into a phase(shared) function.
 *
 * Anything the resolver cannot see through -- macro invocations,
 *  calls on receivers it cannot type, methods missing from an indexed
 * class -- degrades to an "unknown callee" warning, never to silent
 * certainty.  A justified site is suppressed with
 * `// toleo-lint: allow(phase-safety)` plus a why-comment.
 */

#ifndef TOLEO_LINT_PHASE_SAFETY_HH
#define TOLEO_LINT_PHASE_SAFETY_HH

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/toleo_lint/lint_source.hh"

namespace toleo_lint {

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

struct Token
{
    enum class Kind { Ident, Number, Punct };
    Kind kind = Kind::Punct;
    std::string text;
    std::size_t line = 0; ///< 1-based source line
};

/**
 * Tokenize stripped source text (see stripCommentsAndStrings):
 * identifiers, numbers, and multi-char operators ("::", "->", "+=",
 * "==", ...).  Preprocessor lines (and their backslash
 * continuations) are skipped entirely, so both arms of an #if block
 * contribute declarations but no directive tokens.
 */
std::vector<Token> tokenize(const SourceFile &sf);

// ---------------------------------------------------------------------
// Declaration / member index
// ---------------------------------------------------------------------

enum class PhaseKind { None, Private, Shared };
enum class StateKind { None, Shared, PerCore };

struct MemberInfo
{
    std::string name;
    std::string className; ///< owning class
    StateKind state = StateKind::None;
    /** Resolved class type when the declaration names an indexed
     *  class (innermost template argument wins); "" otherwise. */
    std::string typeClass;
    /** Declaration had template arguments (container / smart
     *  pointer): typeClass is the *element* type, so a method called
     *  directly on the member (no [i] / deref) is a container
     *  operation, not an element method. */
    bool container = false;
    const SourceFile *file = nullptr;
    std::size_t line = 0;
};

struct FunctionInfo
{
    std::string name;      ///< unqualified
    std::string className; ///< "" for free functions
    bool isVirtual = false;
    bool isConst = false;
    bool hasBody = false;
    PhaseKind phase = PhaseKind::None;
    const SourceFile *file = nullptr;
    std::size_t line = 0;      ///< declaration/definition line
    std::size_t fileIndex = 0; ///< index into CodeIndex::tokens
    /** Parameter-list token range (paren) for local-type resolution. */
    std::size_t paramBegin = 0;
    std::size_t paramEnd = 0;
    /** Body token range [bodyBegin, bodyEnd) when hasBody. */
    std::size_t bodyBegin = 0;
    std::size_t bodyEnd = 0;

    std::string
    qualName() const
    {
        return className.empty() ? name : className + "::" + name;
    }
};

struct ClassInfo
{
    std::string name;
    std::vector<std::string> bases; ///< direct base class names
    std::vector<std::string> memberNames;
    std::set<std::string> methodNames;
    bool hasSharedState = false; ///< any state(shared) member
};

struct CodeIndex
{
    /** Token stream per input file (parallel to the files vector the
     *  index was built from). */
    std::vector<std::vector<Token>> tokens;
    std::map<std::string, ClassInfo> classes;
    std::vector<FunctionInfo> functions;
    /** "Class::name" or bare name -> indices into functions. */
    std::map<std::string, std::vector<std::size_t>> functionsByQual;
    /** Unqualified method name -> indices (for degradation checks). */
    std::map<std::string, std::vector<std::size_t>> methodsByName;
    /** "Class::member" -> member record. */
    std::map<std::string, MemberInfo> members;
    /** class -> direct subclasses (for virtual fan-out). */
    std::map<std::string, std::vector<std::string>> derived;

    const MemberInfo *
    findMember(const std::string &cls, const std::string &name) const;

    /** Member lookup through the base-class chain of @p cls. */
    const MemberInfo *
    findMemberInherited(const std::string &cls,
                        const std::string &name) const;

    /** Method lookup through the base-class chain; nullptr or the
     *  first declaration's info (flags merged across redecls). */
    const FunctionInfo *
    findMethodInherited(const std::string &cls,
                        const std::string &name) const;

    /** Transitive subclasses of @p cls (not including @p cls). */
    std::vector<std::string>
    transitiveDerived(const std::string &cls) const;
};

/**
 * Index class declarations, data members, function
 * declarations/definitions, and phase/state annotations across
 * @p files.  The returned index points into @p files; keep them
 * alive.
 */
CodeIndex buildIndex(const std::vector<SourceFile> &files);

// ---------------------------------------------------------------------
// Phase-safety analysis
// ---------------------------------------------------------------------

struct PhaseIssue
{
    const SourceFile *file = nullptr;
    std::size_t line = 0;
    std::string message;
};

struct PhaseReport
{
    /** Discipline violations (lint findings). */
    std::vector<PhaseIssue> violations;
    /** Unknown-callee degradations: sites the resolver could not see
     *  through.  Not findings -- but never silently dropped. */
    std::vector<PhaseIssue> warnings;
    std::size_t roots = 0;
    std::size_t functionsWalked = 0;
    /** Qualified names of the phase(private) roots, in walk order
     *  (functionsByQual map order, i.e. sorted).  Printed with the
     *  summary so CI can assert that a path it cares about -- e.g.
     *  the rack node-step root -- is actually being proven. */
    std::vector<std::string> rootNames;
};

/** Analyze a pre-built index (files must outlive the report). */
PhaseReport analyzePhaseSafety(const std::vector<SourceFile> &files,
                               const CodeIndex &index);

/** Convenience: buildIndex + analyze. */
PhaseReport analyzePhaseSafety(const std::vector<SourceFile> &files);

} // namespace toleo_lint

#endif // TOLEO_LINT_PHASE_SAFETY_HH
