// turbo_lint v2 analysis engine: file loading, rule registry, suppression
// and baseline handling, text/JSON reporting.
//
// The engine is a library (linked by the `turbo_lint` CLI and by
// tests/lint_engine_test.cpp) so the rules can be driven against fixture
// trees without shelling out to the binary. A `Project` owns every lexed
// source file plus the cross-file symbol tables rules need:
//
//  - `unordered_names()`: every identifier declared anywhere in the tree
//    as a `std::unordered_map` / `std::unordered_set` — the iteration-
//    order-sensitive containers rules 8 and 11 reason about.
//  - `float_names()`: identifiers declared with `float` / `double`
//    anywhere (members and locals), the accumulators rule 11 watches.
//
// Findings are deterministic: rules run in registry order and results
// are sorted by (file, line, rule, message) before reporting, so two
// runs over the same tree emit byte-identical output — the same
// property the linter enforces on the code it scans.
//
// Baseline workflow (grandfathering): a baseline file holds one line per
// accepted finding, `<rule> <file> <hash>`, where the hash covers the
// rule id, the file path and the *text* of the offending line (not its
// number, so unrelated edits don't invalidate entries). Findings whose
// key appears in the baseline are filtered out; baseline entries that no
// longer match anything are reported as stale so the file can only
// shrink. `turbo_lint --write-baseline` regenerates it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/lexer.h"

namespace turbo::lint {

struct SourceFile {
  std::string rel;  // path relative to the scanned root, '/'-separated
  std::string raw;  // original contents
  LexedFile lexed;
};

SourceFile make_source(std::string rel, const std::string& text);

struct Finding {
  std::string rel;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

struct RuleInfo {
  // Catalog number (docs/STATIC_ANALYSIS.md). A retired rule's number is
  // not reused, so the numbers have gaps.
  int number = 0;
  std::string id;           // e.g. "nondeterministic-iteration"
  std::string summary;      // one-line rationale for --list-rules
  std::string suppression;  // inline marker name ("" = not suppressible)
};

class Project {
 public:
  explicit Project(std::vector<SourceFile> files);

  const std::vector<SourceFile>& files() const { return files_; }
  const SourceFile* find(const std::string& rel) const;

  // Identifiers declared as std::unordered_map / std::unordered_set
  // anywhere in the project (members, locals, parameters).
  const std::set<std::string>& unordered_names() const {
    return unordered_names_;
  }
  // Identifiers declared with float / double anywhere in the project.
  const std::set<std::string>& float_names() const { return float_names_; }

 private:
  std::vector<SourceFile> files_;
  std::set<std::string> unordered_names_;
  std::set<std::string> float_names_;
};

// Registry of all rules, in rule-number order (1..11).
const std::vector<RuleInfo>& rules();
const RuleInfo* rule_info(const std::string& id);

// Run every rule; inline suppressions already applied; results sorted.
std::vector<Finding> run_rules(const Project& project);

// --- baseline -------------------------------------------------------------

// Stable key for a finding: fnv1a64 over rule id, file path and the
// trimmed text of the offending line.
std::string finding_key(const Finding& finding, const Project& project);

// Parse a baseline file: one `<rule> <file> <hash>` entry per line,
// '#' comments and blank lines ignored. Returns multiset of keys.
std::map<std::string, std::size_t> parse_baseline(const std::string& text);

// Render findings as baseline entries (sorted, commented header).
std::string format_baseline(const std::vector<Finding>& findings,
                            const Project& project);

// Remove findings whose key is in `baseline` (consuming one count per
// match). Keys left unconsumed are returned through `stale` — entries
// whose violation no longer exists and must be deleted from the file.
std::vector<Finding> apply_baseline(
    const std::vector<Finding>& findings, const Project& project,
    std::map<std::string, std::size_t> baseline,
    std::vector<std::string>* stale);

// --- reporting ------------------------------------------------------------

std::string to_text(const std::vector<Finding>& findings);
// Machine-readable report: {"tool","version","files_scanned","count",
// "findings":[{"file","line","rule","message","suppression"}]}.
std::string to_json(const std::vector<Finding>& findings,
                    std::size_t files_scanned);

// --- loading --------------------------------------------------------------

// Load every .h/.cpp under <root>/src and <root>/tools. Deterministic
// (sorted) order regardless of directory enumeration.
std::vector<SourceFile> load_tree(const std::string& root);

}  // namespace turbo::lint
