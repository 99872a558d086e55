// curtain_lint — the project's determinism, layering and hygiene linter.
//
// A token-stream analyzer (still no libclang): tools/lint/lexer.h scans
// each file into a token stream plus a comment-stripped, literal-blanked
// code view — raw strings, multi-line comments and preprocessor splices
// are handled exactly — and the rules below run over those views plus the
// include graph. The whole tree lints in milliseconds, cheap enough for
// tier-1 ctest.
//
// Rules (DESIGN.md §11 determinism, §16 layering/hot paths):
//   entropy          std::rand/srand/random_device outside net/rng.cpp
//   wallclock        system_clock/steady_clock/time(nullptr)/... outside
//                    net/time.cpp
//   unordered-iter   iteration over unordered_map/unordered_set in files
//                    that reach export/analysis paths
//   rng-seed         an Rng constructed from anything not traceable to
//                    mix_key/hash_tag/derive/a seed parameter
//   record-growth    std::vector<measurement-record> accumulation outside
//                    the bounded record-block pipeline (DESIGN.md §15)
//   layering         a `#include "module/..."` that walks up or across
//                    the declared layer DAG (include_graph.h; the message
//                    names the violated edge, e.g. `net -> measure`)
//   include-cycle    a file-level include cycle inside src/
//   shared-static    a mutable (non-const/constexpr/thread_local) static
//                    at namespace or function scope — shared state under
//                    the worker pool; the obs singletons carry waivers
//   hot-alloc        allocation idioms in files marked `// lint-hot-path`:
//                    non-placement new, make_unique/make_shared,
//                    std::function, by-value std::string params/copies
//   pragma-once      header missing #pragma once
//   using-namespace  using-namespace directive in a header
//
// A finding on a line is suppressed by a trailing waiver comment whose
// text starts with `lint:` and names the rule:  `// lint: wallclock`
// (comma-separated for several rules; a parenthesized note documents why:
// `// lint: shared-static (process-wide registry)`). Self-documenting
// aliases: `order-insensitive` waives unordered-iter, `bounded` waives
// record-growth for structurally capped containers, `profiler-wallclock`
// waives wallclock in the profiling substrate. Every active waiver is
// inventoried in tools/lint/WAIVERS.txt (regenerate with
// `curtain_lint --waivers src bench examples tools`); `scripts/check.sh
// lint` fails when the tree and the inventory drift, so waiver growth is
// reviewed, not silent.
#pragma once

#include <string>
#include <vector>

namespace curtain::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// One active `// lint:` waiver in the tree (for the committed inventory).
struct Waiver {
  std::string file;
  int line = 0;
  std::string rule;  ///< as written, aliases included
};

/// "file:line: [rule] message" — the format every finding is printed in.
std::string format(const Finding& finding);

/// "file:line: rule" — one inventory row (WAIVERS.txt format).
std::string format(const Waiver& waiver);

/// Findings as a JSON array of {file, line, rule, message} objects, for
/// `--format=json` (machine-readable CI annotations).
std::string format_json(const std::vector<Finding>& findings);

/// Lints one file's content. `path` decides which rules and exemptions
/// apply (it is matched as a suffix/substring, so relative fixture paths
/// like "src/analysis/foo.cpp" behave like real tree paths).
std::vector<Finding> lint_file(const std::string& path,
                               const std::string& content);

/// As above, with the paired header's content supplied so member
/// declarations there participate in unordered-iteration tracking (this is
/// what lint_tree does automatically for every x.cpp with a same-stem
/// header: sibling x.h/x.hpp, or x.h/x.hpp in an include/ directory next
/// to or one level above the source).
std::vector<Finding> lint_file(const std::string& path,
                               const std::string& content,
                               const std::string& sibling_header_content);

/// An in-memory file for lint_file_set (tests, tooling).
struct FileContent {
  std::string path;
  std::string content;
};

/// Lints a set of files as one tree: per-file rules with same-stem header
/// pairing resolved within the set, plus the include-graph passes
/// (include-cycle) across the set. Findings are sorted by (file, line,
/// rule).
std::vector<Finding> lint_file_set(const std::vector<FileContent>& files);

/// Recursively lints every .h/.hpp/.cpp/.cc under each root (a root may
/// also be a single file). Directories named "testdata" are skipped
/// unless the root itself points into one (so fixture trees lint on
/// purpose, never by accident). Files are visited in sorted path order so
/// output and exit codes are reproducible.
std::vector<Finding> lint_tree(const std::vector<std::string>& roots);

/// Collects every active waiver under the roots (same file discovery as
/// lint_tree), sorted by (file, line, rule) — the `--waivers` inventory.
std::vector<Waiver> collect_waivers(const std::vector<std::string>& roots);

}  // namespace curtain::lint
