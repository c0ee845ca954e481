// turbo_lint — repo-specific determinism and invariant checks a generic
// linter can't do. v2: a token-stream analysis engine (tools/lint/) with
// a rule registry, machine-readable output and a grandfathering
// baseline. See docs/STATIC_ANALYSIS.md for the full rule catalog.
//
// Usage:
//   turbo_lint [options] <repo_root>
//
//   --json                  machine-readable report on stdout
//   --baseline FILE         baseline file (default:
//                           <root>/tools/turbo_lint_baseline.txt if present)
//   --no-baseline           ignore any baseline file
//   --write-baseline FILE   write current findings as a baseline and exit
//   --list-rules            print the rule catalog and exit
//
// Exit status: 0 clean, 1 violations or stale baseline entries, 2 usage
// or I/O error. Stale baseline entries (grandfathered findings that no
// longer exist) are an error so the baseline can only ever shrink.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/engine.h"

namespace fs = std::filesystem;
namespace lint = turbo::lint;

namespace {

int list_rules() {
  for (const lint::RuleInfo& r : lint::rules()) {
    std::cout << "  " << r.number << ". " << r.id << "\n       " << r.summary
              << "\n       suppression: "
              << (r.suppression.empty() ? "(none — not suppressible)"
                                        : "// turbo-lint: " + r.suppression)
              << "\n";
  }
  return 0;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool no_baseline = false;
  std::string baseline_path;
  std::string write_baseline_path;
  std::string root;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--no-baseline") {
      no_baseline = true;
    } else if (a == "--list-rules") {
      return list_rules();
    } else if (a == "--baseline" && i + 1 < args.size()) {
      baseline_path = args[++i];
    } else if (a == "--write-baseline" && i + 1 < args.size()) {
      write_baseline_path = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "turbo_lint: unknown option '%s'\n", a.c_str());
      return 2;
    } else if (root.empty()) {
      root = a;
    } else {
      std::fprintf(stderr, "turbo_lint: multiple roots given\n");
      return 2;
    }
  }
  if (root.empty()) {
    std::fprintf(stderr,
                 "usage: turbo_lint [--json] [--baseline FILE] "
                 "[--no-baseline] [--write-baseline FILE] [--list-rules] "
                 "<repo_root>\n");
    return 2;
  }
  if (!fs::is_directory(fs::path(root) / "src")) {
    std::fprintf(stderr, "turbo_lint: %s/src is not a directory\n",
                 root.c_str());
    return 2;
  }

  const lint::Project project(lint::load_tree(root));
  std::vector<lint::Finding> findings = lint::run_rules(project);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "turbo_lint: cannot write baseline '%s'\n",
                   write_baseline_path.c_str());
      return 2;
    }
    out << lint::format_baseline(findings, project);
    std::fprintf(stderr, "turbo_lint: wrote %zu baseline entr%s to %s\n",
                 findings.size(), findings.size() == 1 ? "y" : "ies",
                 write_baseline_path.c_str());
    return 0;
  }

  // Default baseline: tools/turbo_lint_baseline.txt under the root.
  if (baseline_path.empty() && !no_baseline) {
    const fs::path candidate =
        fs::path(root) / "tools" / "turbo_lint_baseline.txt";
    if (fs::is_regular_file(candidate)) {
      baseline_path = candidate.string();
    }
  }

  std::size_t baselined = 0;
  std::vector<std::string> stale;
  if (!baseline_path.empty() && !no_baseline) {
    std::string text;
    if (!read_file(baseline_path, text)) {
      std::fprintf(stderr, "turbo_lint: cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    const std::size_t before = findings.size();
    findings = lint::apply_baseline(findings, project,
                                    lint::parse_baseline(text), &stale);
    baselined = before - findings.size();
  }

  if (json) {
    std::cout << lint::to_json(findings, project.files().size());
  } else {
    std::cout << lint::to_text(findings);
    std::cout << "turbo_lint: " << project.files().size()
              << " files scanned, " << findings.size() << " violation(s)";
    if (baselined > 0) std::cout << ", " << baselined << " baselined";
    if (!stale.empty()) std::cout << ", " << stale.size() << " stale";
    std::cout << "\n";
  }
  for (const std::string& key : stale) {
    std::fprintf(stderr,
                 "turbo_lint: stale baseline entry %s (finding no longer "
                 "exists — remove it from %s)\n",
                 key.c_str(), baseline_path.c_str());
  }
  return findings.empty() && stale.empty() ? 0 : 1;
}
