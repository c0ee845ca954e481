// Self-tests for the turbo_lint v2 analysis engine (tools/lint/).
//
// Each rule is exercised against one positive and one negative fixture
// from tests/lint_fixtures/ — the positive must fire, the negative must
// stay silent (the negatives encode the sanctioned alternatives, e.g.
// the sorted-snapshot idiom for rule 8). On top of the per-rule pairs:
// suppression markers, the baseline round-trip, JSON well-formedness
// and run-to-run determinism.
#include <cctype>
#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tools/lint/engine.h"

namespace {

using turbo::lint::Finding;
using turbo::lint::Project;
using turbo::lint::SourceFile;

std::string read_fixture(const std::string& name) {
  const std::string path = std::string(TURBO_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Build a project mapping fixture files onto in-tree-looking paths (some
// rules key on the path: rule 7 wants src/serving/swap.*, rule 10 wants
// the kernel directories).
Project project_from(
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const auto& [rel, fixture] : files) {
    sources.push_back(turbo::lint::make_source(rel, read_fixture(fixture)));
  }
  return Project(std::move(sources));
}

std::size_t count_rule(const std::vector<Finding>& findings,
                       const std::string& rule) {
  std::size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// Runs the whole registry over a single fixture and counts how often
// `rule` fired (other rules may legitimately stay silent on it).
std::size_t fire_count(const std::string& rel, const std::string& fixture,
                       const std::string& rule) {
  const Project project = project_from({{rel, fixture}});
  return count_rule(turbo::lint::run_rules(project), rule);
}

std::string remove_all(std::string text, const std::string& needle) {
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos)) {
    text.erase(pos, needle.size());
  }
  return text;
}

// --- minimal JSON validator (recursive descent, structure only) -----------

struct JsonCursor {
  const std::string& text;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\t' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
};

bool parse_json_value(JsonCursor& c);

bool parse_json_string(JsonCursor& c) {
  if (!c.eat('"')) return false;
  while (c.pos < c.text.size() && c.text[c.pos] != '"') {
    if (c.text[c.pos] == '\\') {
      ++c.pos;
      if (c.pos >= c.text.size()) return false;
    }
    ++c.pos;
  }
  return c.eat('"');
}

bool parse_json_object(JsonCursor& c) {
  if (!c.eat('{')) return false;
  if (c.eat('}')) return true;
  do {
    if (!parse_json_string(c)) return false;
    if (!c.eat(':')) return false;
    if (!parse_json_value(c)) return false;
  } while (c.eat(','));
  return c.eat('}');
}

bool parse_json_array(JsonCursor& c) {
  if (!c.eat('[')) return false;
  if (c.eat(']')) return true;
  do {
    if (!parse_json_value(c)) return false;
  } while (c.eat(','));
  return c.eat(']');
}

bool parse_json_value(JsonCursor& c) {
  c.skip_ws();
  if (c.pos >= c.text.size()) return false;
  const char head = c.text[c.pos];
  if (head == '{') return parse_json_object(c);
  if (head == '[') return parse_json_array(c);
  if (head == '"') return parse_json_string(c);
  if (c.text.compare(c.pos, 4, "true") == 0) {
    c.pos += 4;
    return true;
  }
  if (c.text.compare(c.pos, 5, "false") == 0) {
    c.pos += 5;
    return true;
  }
  if (c.text.compare(c.pos, 4, "null") == 0) {
    c.pos += 4;
    return true;
  }
  // Number: digits, sign, dot, exponent.
  const std::size_t start = c.pos;
  while (c.pos < c.text.size() &&
         (std::isdigit(static_cast<unsigned char>(c.text[c.pos])) != 0 ||
          c.text[c.pos] == '-' || c.text[c.pos] == '+' ||
          c.text[c.pos] == '.' || c.text[c.pos] == 'e' ||
          c.text[c.pos] == 'E')) {
    ++c.pos;
  }
  return c.pos > start;
}

bool is_valid_json(const std::string& text) {
  JsonCursor c{text};
  if (!parse_json_value(c)) return false;
  c.skip_ws();
  return c.pos == text.size();
}

// --- lexer ----------------------------------------------------------------

TEST(LintLexerTest, TracksBraceDepthAndDirectives) {
  const auto lexed =
      turbo::lint::lex("#include <cassert>\nint f() { int a = 0; { a = 1; } return a; }\n");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens[0].kind, turbo::lint::TokKind::kDirective);
  EXPECT_NE(lexed.tokens[0].text.find("cassert"), std::string::npos);

  std::size_t outer_depth = 0;
  std::size_t inner_depth = 0;
  std::size_t seen = 0;
  for (const auto& tok : lexed.tokens) {
    if (tok.kind == turbo::lint::TokKind::kIdent && tok.text == "a") {
      ++seen;
      if (seen == 1) outer_depth = tok.depth;  // int a = 0;
      if (seen == 2) inner_depth = tok.depth;  // a = 1;
    }
  }
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(inner_depth, outer_depth + 1);
}

TEST(LintLexerTest, StringLiteralsAreOpaqueTokens) {
  const auto lexed = turbo::lint::lex(
      "const char* kMsg = \"assert(fired) && std::rand()\";\n");
  for (const auto& tok : lexed.tokens) {
    if (tok.kind == turbo::lint::TokKind::kIdent) {
      EXPECT_NE(tok.text, "assert");
      EXPECT_NE(tok.text, "rand");
    }
  }
}

TEST(LintLexerTest, FloatLiteralDetection) {
  const auto lexed = turbo::lint::lex("double d = 1.5f + 42 + 3e8;\n");
  std::vector<bool> floats;
  for (const auto& tok : lexed.tokens) {
    if (tok.kind == turbo::lint::TokKind::kNumber) {
      floats.push_back(tok.is_float);
    }
  }
  ASSERT_EQ(floats.size(), 3u);
  EXPECT_TRUE(floats[0]);
  EXPECT_FALSE(floats[1]);
  EXPECT_TRUE(floats[2]);
}

TEST(LintLexerTest, MarkersAndFileTags) {
  const auto lexed = turbo::lint::lex(
      "// turbo-lint: integer-kernel\n"
      "int f(int v) {\n"
      "  return v;  // turbo-lint: allow-float\n"
      "}\n");
  EXPECT_TRUE(turbo::lint::line_has_marker(lexed, 3, "allow-float"));
  EXPECT_FALSE(turbo::lint::line_has_marker(lexed, 2, "allow-float"));
  EXPECT_EQ(lexed.tags.count("integer-kernel"), 1u);
}

// --- rule registry --------------------------------------------------------

TEST(LintRegistryTest, ThirteenRulesInOrder) {
  const auto& rules = turbo::lint::rules();
  const std::vector<std::string> expected = {
      "no-raw-assert",          "unchecked-i8-cast",
      "integer-kernel",         "method-shape-check",
      "unchecked-cache-append", "unfaultable-swap-io",
      "nondeterministic-iteration", "unsanctioned-entropy",
      "mutable-global-state",   "unordered-float-reduction",
      "unfaultable-replica-channel", "cow-unguarded-page-write",
      "unfaultable-snapshot-io"};
  ASSERT_EQ(rules.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rules[i].id, expected[i]);
    EXPECT_FALSE(rules[i].summary.empty()) << rules[i].id;
  }
  // Catalog numbers skip the retired rule 6.
  EXPECT_EQ(rules[4].number, 5);
  EXPECT_EQ(rules[5].number, 7);
  EXPECT_EQ(rules.back().number, 14);
  ASSERT_NE(turbo::lint::rule_info("nondeterministic-iteration"), nullptr);
  EXPECT_EQ(turbo::lint::rule_info("nondeterministic-iteration")->suppression,
            "allow-unordered-iter");
  ASSERT_NE(turbo::lint::rule_info("unfaultable-replica-channel"), nullptr);
  EXPECT_EQ(turbo::lint::rule_info("unfaultable-replica-channel")->suppression,
            "allow-unfaultable-channel");
  ASSERT_NE(turbo::lint::rule_info("cow-unguarded-page-write"), nullptr);
  EXPECT_EQ(turbo::lint::rule_info("cow-unguarded-page-write")->suppression,
            "allow-cow-write");
  ASSERT_NE(turbo::lint::rule_info("unfaultable-snapshot-io"), nullptr);
  EXPECT_EQ(turbo::lint::rule_info("unfaultable-snapshot-io")->suppression,
            "allow-unfaultable-snapshot");
  EXPECT_EQ(turbo::lint::rule_info("no-such-rule"), nullptr);
}

// --- per-rule fixtures ----------------------------------------------------

TEST(LintRuleTest, NoRawAssert) {
  EXPECT_GE(fire_count("src/a.cpp", "rule01_pos.cpp", "no-raw-assert"), 1u);
  EXPECT_EQ(fire_count("src/a.cpp", "rule01_neg.cpp", "no-raw-assert"), 0u);
}

TEST(LintRuleTest, UncheckedI8Cast) {
  EXPECT_GE(fire_count("src/a.cpp", "rule02_pos.cpp", "unchecked-i8-cast"),
            1u);
  EXPECT_EQ(fire_count("src/a.cpp", "rule02_neg.cpp", "unchecked-i8-cast"),
            0u);
}

TEST(LintRuleTest, IntegerKernel) {
  EXPECT_GE(fire_count("src/a.cpp", "rule03_pos.cpp", "integer-kernel"), 1u);
  EXPECT_EQ(fire_count("src/a.cpp", "rule03_neg.cpp", "integer-kernel"), 0u);
}

TEST(LintRuleTest, MethodShapeCheck) {
  EXPECT_GE(fire_count("src/a.cpp", "rule04_pos.cpp", "method-shape-check"),
            1u);
  EXPECT_EQ(fire_count("src/a.cpp", "rule04_neg.cpp", "method-shape-check"),
            0u);
}

TEST(LintRuleTest, UncheckedCacheAppend) {
  EXPECT_GE(
      fire_count("src/a.cpp", "rule05_pos.cpp", "unchecked-cache-append"),
      1u);
  EXPECT_EQ(
      fire_count("src/a.cpp", "rule05_neg.cpp", "unchecked-cache-append"),
      0u);
}

TEST(LintRuleTest, UnfaultableSwapIo) {
  EXPECT_GE(fire_count("src/serving/swap.h", "rule07_pos.h",
                       "unfaultable-swap-io"),
            1u);
  EXPECT_EQ(fire_count("src/serving/swap.h", "rule07_neg.h",
                       "unfaultable-swap-io"),
            0u);
  // The same signatures outside the swap layer are nobody's business.
  EXPECT_EQ(fire_count("src/kvcache/other.h", "rule07_pos.h",
                       "unfaultable-swap-io"),
            0u);
}

TEST(LintRuleTest, UnfaultableReplicaChannel) {
  EXPECT_GE(fire_count("src/fleet/router.h", "rule12_pos.h",
                       "unfaultable-replica-channel"),
            1u);
  EXPECT_EQ(fire_count("src/fleet/router.h", "rule12_neg.h",
                       "unfaultable-replica-channel"),
            0u);
  // The same signatures outside src/fleet/ are nobody's business.
  EXPECT_EQ(fire_count("src/serving/other.h", "rule12_pos.h",
                       "unfaultable-replica-channel"),
            0u);
}

TEST(LintRuleTest, UnfaultableSnapshotIo) {
  EXPECT_GE(fire_count("src/serving/snapshot.h", "rule14_pos.h",
                       "unfaultable-snapshot-io"),
            1u);
  EXPECT_EQ(fire_count("src/serving/snapshot.h", "rule14_neg.h",
                       "unfaultable-snapshot-io"),
            0u);
  // The same signatures outside the snapshot layer are nobody's business
  // (src/serving/engine.h declares snapshot_to/restore_from itself).
  EXPECT_EQ(fire_count("src/serving/engine.h", "rule14_pos.h",
                       "unfaultable-snapshot-io"),
            0u);
}

TEST(LintRuleTest, CowUnguardedPageWrite) {
  EXPECT_EQ(fire_count("src/kvcache/paged_cache.cpp", "rule13_pos.cpp",
                       "cow-unguarded-page-write"),
            2u);
  EXPECT_EQ(fire_count("src/kvcache/paged_cache.cpp", "rule13_neg.cpp",
                       "cow-unguarded-page-write"),
            0u);
}

TEST(LintRuleTest, NondeterministicIteration) {
  EXPECT_GE(fire_count("src/a.cpp", "rule08_pos.cpp",
                       "nondeterministic-iteration"),
            1u);
  // Integer reduction and the sorted-snapshot idiom both pass.
  EXPECT_EQ(fire_count("src/a.cpp", "rule08_neg.cpp",
                       "nondeterministic-iteration"),
            0u);
}

TEST(LintRuleTest, UnsanctionedEntropy) {
  EXPECT_GE(
      fire_count("src/a.cpp", "rule09_pos.cpp", "unsanctioned-entropy"), 1u);
  EXPECT_EQ(
      fire_count("src/a.cpp", "rule09_neg.cpp", "unsanctioned-entropy"), 0u);
  // The seeded RNG implementation itself is the sanctioned home.
  EXPECT_EQ(fire_count("src/common/rng.h", "rule09_pos.cpp",
                       "unsanctioned-entropy"),
            0u);
}

TEST(LintRuleTest, MutableGlobalState) {
  EXPECT_GE(fire_count("src/kernels/fixture.cpp", "rule10_pos.cpp",
                       "mutable-global-state"),
            1u);
  EXPECT_EQ(fire_count("src/kernels/fixture.cpp", "rule10_neg.cpp",
                       "mutable-global-state"),
            0u);
  // Outside the worker-pool directories the rule does not apply.
  EXPECT_EQ(fire_count("src/serving/fixture.cpp", "rule10_pos.cpp",
                       "mutable-global-state"),
            0u);
}

TEST(LintRuleTest, UnorderedFloatReduction) {
  EXPECT_GE(fire_count("src/a.cpp", "rule11_pos.cpp",
                       "unordered-float-reduction"),
            1u);
  EXPECT_EQ(fire_count("src/a.cpp", "rule11_neg.cpp",
                       "unordered-float-reduction"),
            0u);
}

// --- suppression markers --------------------------------------------------

TEST(LintSuppressionTest, MarkersSilenceFindings) {
  const Project suppressed =
      project_from({{"src/a.cpp", "suppressed.cpp"}});
  const auto quiet = turbo::lint::run_rules(suppressed);
  EXPECT_EQ(count_rule(quiet, "unchecked-i8-cast"), 0u);
  EXPECT_EQ(count_rule(quiet, "nondeterministic-iteration"), 0u);
}

TEST(LintSuppressionTest, StrippedMarkersFireAgain) {
  std::string text = read_fixture("suppressed.cpp");
  text = remove_all(text, "turbo-lint: allow-narrowing");
  text = remove_all(text, "turbo-lint: allow-unordered-iter");
  std::vector<SourceFile> sources;
  sources.push_back(turbo::lint::make_source("src/a.cpp", text));
  const Project project(std::move(sources));
  const auto loud = turbo::lint::run_rules(project);
  EXPECT_GE(count_rule(loud, "unchecked-i8-cast"), 1u);
  EXPECT_GE(count_rule(loud, "nondeterministic-iteration"), 1u);
}

// --- baseline round-trip --------------------------------------------------

TEST(LintBaselineTest, RoundTripConsumesEveryFinding) {
  const Project project =
      project_from({{"src/fixture.cpp", "rule01_pos.cpp"}});
  const auto findings = turbo::lint::run_rules(project);
  ASSERT_FALSE(findings.empty());

  const std::string baseline_text =
      turbo::lint::format_baseline(findings, project);
  const auto baseline = turbo::lint::parse_baseline(baseline_text);
  EXPECT_EQ(baseline.size(), findings.size());

  std::vector<std::string> stale;
  const auto live =
      turbo::lint::apply_baseline(findings, project, baseline, &stale);
  EXPECT_TRUE(live.empty());
  EXPECT_TRUE(stale.empty());
}

TEST(LintBaselineTest, UnmatchedEntriesReportedStale) {
  const Project project =
      project_from({{"src/fixture.cpp", "rule01_pos.cpp"}});
  const auto findings = turbo::lint::run_rules(project);
  ASSERT_FALSE(findings.empty());

  const std::string baseline_text =
      turbo::lint::format_baseline(findings, project) +
      "no-raw-assert src/fixture.cpp 0123456789abcdef\n";
  std::vector<std::string> stale;
  const auto live = turbo::lint::apply_baseline(
      findings, project, turbo::lint::parse_baseline(baseline_text), &stale);
  EXPECT_TRUE(live.empty());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "0123456789abcdef");
}

TEST(LintBaselineTest, CommentsAndBlankLinesIgnored) {
  const auto parsed = turbo::lint::parse_baseline(
      "# header comment\n\n   \n# another\n");
  EXPECT_TRUE(parsed.empty());
}

TEST(LintBaselineTest, KeyIgnoresLineNumbers) {
  // The same offending line at different line numbers hashes to the same
  // key, so unrelated edits above a grandfathered finding keep the
  // baseline entry valid.
  const std::string body = "void f(int v) { assert(v > 0); }\n";
  const Project early(
      {turbo::lint::make_source("src/x.cpp", "#include <cassert>\n" + body)});
  const Project late({turbo::lint::make_source(
      "src/x.cpp", "#include <cassert>\n// pad\n// pad\n// pad\n" + body)});

  const auto find_assert_key = [](const Project& p) {
    std::string key;
    for (const Finding& f : turbo::lint::run_rules(p)) {
      if (f.rule == "no-raw-assert" && f.line > 1) {
        key = turbo::lint::finding_key(f, p);
      }
    }
    return key;
  };
  const std::string a = find_assert_key(early);
  const std::string b = find_assert_key(late);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

// --- JSON output ----------------------------------------------------------

TEST(LintJsonTest, ReportIsWellFormed) {
  const Project project = project_from({
      {"src/a.cpp", "rule01_pos.cpp"},
      {"src/b.cpp", "rule08_pos.cpp"},
      {"src/c.cpp", "rule09_pos.cpp"},
  });
  const auto findings = turbo::lint::run_rules(project);
  ASSERT_FALSE(findings.empty());
  const std::string json = turbo::lint::to_json(findings, 3);
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"tool\": \"turbo_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 3"), std::string::npos);
}

TEST(LintJsonTest, EmptyReportIsWellFormed) {
  const std::string json = turbo::lint::to_json({}, 0);
  EXPECT_TRUE(is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"count\": 0"), std::string::npos);
}

TEST(LintJsonTest, MessagesAreEscaped) {
  Finding hostile;
  hostile.rel = "src/we\\ird\".cpp";
  hostile.line = 7;
  hostile.rule = "no-such-rule";
  hostile.message = "quote \" backslash \\ newline \n tab \t done";
  const std::string json = turbo::lint::to_json({hostile}, 1);
  EXPECT_TRUE(is_valid_json(json)) << json;
}

// --- determinism ----------------------------------------------------------

TEST(LintDeterminismTest, RepeatRunsAreByteIdentical) {
  const std::vector<std::pair<std::string, std::string>> tree = {
      {"src/a.cpp", "rule01_pos.cpp"},  {"src/b.cpp", "rule02_pos.cpp"},
      {"src/c.cpp", "rule08_pos.cpp"},  {"src/d.cpp", "rule09_pos.cpp"},
      {"src/kernels/e.cpp", "rule10_pos.cpp"},
      {"src/f.cpp", "rule11_pos.cpp"},
  };
  const Project first = project_from(tree);
  const Project second = project_from(tree);
  const auto run1 = turbo::lint::run_rules(first);
  const auto run2 = turbo::lint::run_rules(second);
  EXPECT_EQ(turbo::lint::to_text(run1), turbo::lint::to_text(run2));
  EXPECT_EQ(turbo::lint::to_json(run1, tree.size()),
            turbo::lint::to_json(run2, tree.size()));
  // Findings arrive sorted by (file, line, rule, message).
  for (std::size_t i = 1; i < run1.size(); ++i) {
    const auto key = [](const Finding& f) {
      return std::make_tuple(f.rel, f.line, f.rule, f.message);
    };
    EXPECT_LE(key(run1[i - 1]), key(run1[i]));
  }
}

}  // namespace
