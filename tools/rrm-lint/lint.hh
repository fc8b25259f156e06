/**
 * @file
 * rrm-lint: project-specific static analysis for the RRM simulator.
 *
 * The generic toolchain (clang-tidy, -Wall) cannot know that iterating
 * an unordered container in an exporter breaks the golden-record
 * harness, or that a stray std::time() call silently defeats
 * SOURCE_DATE_EPOCH pinning. rrm-lint encodes those *project* rules as
 * a lexical/structural analyzer over src/, bench/, tests/ and
 * examples/: it strips comments and string literals, builds small
 * per-file-pair symbol tables (unordered-container names, Tick/Cycles
 * declarations, stats::* pointer members), and emits file/line
 * diagnostics with stable rule ids.
 *
 * Rule families (see DESIGN.md §13 for the catalog):
 *   det-*    determinism (unordered iteration, wall clock, ambient
 *            randomness, pointer-keyed ordering)
 *   stats-*  stats/trace hygiene (register-exactly-once, formula
 *            operands, declared trace categories)
 *   units-*  units discipline (no raw Tick/Cycles/byte mixing)
 *   layer-*  layering (module include DAG, SchemeKind confinement)
 *   lint-*   meta rules about suppression directives themselves
 *
 * Suppressions: `// rrm-lint: allow(rule-a,rule-b) reason text`
 * suppresses the named rules on the same line, or — when the comment
 * stands on its own line — on the next line that carries code. The
 * reason is mandatory; a missing reason raises lint-missing-reason and
 * leaves the original diagnostic unsuppressed.
 */

#ifndef RRM_TOOLS_LINT_HH
#define RRM_TOOLS_LINT_HH

#include <map>
#include <string>
#include <vector>

namespace rrm::lint
{

/** Diagnostic severity. Every shipped rule is an error: CI fails on
 *  any unsuppressed finding, so a "warning" tier would just rot. */
enum class Severity
{
    Error,
};

/** One finding. */
struct Diagnostic
{
    std::string file; ///< path relative to the lint root
    int line = 0;     ///< 1-based
    std::string rule;
    Severity severity = Severity::Error;
    std::string message;
    bool suppressed = false;
    std::string suppressReason; ///< set iff suppressed
};

/** Tree-wide analysis knobs; defaultConfig() matches this repo. */
struct Config
{
    /** Directories under the root to scan. */
    std::vector<std::string> scanDirs{"src", "bench", "tests",
                                      "examples"};

    /** Module layering, lowest layer first. A file in src/<m>/ may
     *  include src/<n>/ headers only when n is at or below m. */
    std::vector<std::string> layerOrder;

    /** Declared trace categories (TraceCategory enumerators). */
    std::vector<std::string> traceCategories;

    /** Files (root-relative) allowed to name SchemeKind members —
     *  the policy factory. */
    std::vector<std::string> schemeFactoryFiles;

    /** File (root-relative) that declares the RRM_TRACE macro and the
     *  TraceCategory enum; exempt from the trace-category rule. */
    std::string traceDeclFile = "src/obs/trace.hh";

    /** Files (root-relative) allowed to read the monotonic clock —
     *  the obs::monotonicSeconds() seam. */
    std::vector<std::string> monotonicSeamFiles;

    /** Directory prefixes (root-relative, trailing slash) whose files
     *  sit on the per-event hot path: naming std::function there
     *  raises perf-hot-std-function. */
    std::vector<std::string> hotPathDirs;

    /** Files (root-relative) exempt from perf-hot-std-function — the
     *  InlineFunction seam that implements the ban. */
    std::vector<std::string> hotPathSeamFiles;
};

/** The repo's canonical configuration. */
Config defaultConfig();

/** Refresh config.traceCategories from `<root>/src/obs/trace.hh` when
 *  that file exists; keeps the built-in list otherwise. */
void loadTraceCategories(const std::string &root, Config &config);

/** Stable catalog of every rule id with a one-line description. */
const std::map<std::string, std::string> &ruleCatalog();

/** Lint every matching file under root's scanDirs. Paths in the
 *  returned diagnostics are root-relative; output is sorted by
 *  (file, line, rule) so runs are reproducible. */
std::vector<Diagnostic> lintTree(const std::string &root,
                                 const Config &config);

/** Lint an explicit list of root-relative files (still pairing
 *  `x.hh`/`x.cc` when both are listed). */
std::vector<Diagnostic> lintFiles(const std::string &root,
                                  const std::vector<std::string> &files,
                                  const Config &config);

/** Counts over a diagnostic list. */
struct Summary
{
    std::size_t total = 0;
    std::size_t unsuppressed = 0;
    std::size_t suppressed = 0;
};
Summary summarize(const std::vector<Diagnostic> &diags);

/** Render one diagnostic as "file:line: error[rule]: message". */
std::string formatDiagnostic(const Diagnostic &d);

/** Serialize diagnostics as a deterministic JSON array. */
std::string diagnosticsToJson(const std::vector<Diagnostic> &diags);

} // namespace rrm::lint

#endif // RRM_TOOLS_LINT_HH
