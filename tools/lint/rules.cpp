// The turbo_lint rules, implemented over the token stream.
// Rules 1-5 and 7 are the v1 invariants reimplemented on the engine
// (rule 6 is retired: the counters it kept mirrored are now declared
// once); rules 8-11 are the determinism / concurrency-readiness pack
// added ahead of the SIMD + thread-pool kernel overhaul; 12-14 guard the
// fleet migration channel, the paged cache's copy-on-write contract and
// snapshot I/O (see docs/STATIC_ANALYSIS.md for the full catalog:
// rationale, examples, suppression syntax).
#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/engine.h"

namespace turbo::lint {

namespace {

using Tokens = std::vector<Token>;

bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

// Index of the ')' matching the '(' at `open`; toks.size() if unmatched.
std::size_t match_paren(const Tokens& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) ++depth;
    if (is_punct(toks[i], ")")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

// Index of the '}' matching the '{' at `open`; toks.size() if unmatched.
std::size_t match_brace(const Tokens& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], "{")) ++depth;
    if (is_punct(toks[i], "}")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return toks.size();
}

// Index just past the '>' closing the '<' at `open` ('>>' closes two).
std::size_t skip_angles(const Tokens& toks, std::size_t open) {
  int depth = 0;
  std::size_t i = open;
  while (i < toks.size()) {
    if (toks[i].kind == TokKind::kPunct) {
      if (toks[i].text == "<") ++depth;
      if (toks[i].text == ">") --depth;
      if (toks[i].text == ">>") depth -= 2;
    }
    ++i;
    if (depth <= 0) break;
  }
  return i;
}

// First token of the statement containing `i`: the token right after the
// previous ';', '{' or '}' (directives are skipped).
std::size_t statement_start(const Tokens& toks, std::size_t i) {
  while (i > 0) {
    const Token& prev = toks[i - 1];
    if (is_punct(prev, ";") || is_punct(prev, "{") || is_punct(prev, "}")) {
      break;
    }
    --i;
  }
  return i;
}

void emit(const SourceFile& file, std::size_t line, const std::string& rule,
          const std::string& message, std::vector<Finding>& out) {
  const RuleInfo* info = rule_info(rule);
  if (info != nullptr && !info->suppression.empty() &&
      line_has_marker(file.lexed, line, info->suppression)) {
    return;
  }
  out.push_back({file.rel, line, rule, message});
}

// --- rule 1: no-raw-assert ------------------------------------------------

void rule_no_raw_assert(const SourceFile& file, std::vector<Finding>& out) {
  const Tokens& toks = file.lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kDirective) {
      if (toks[i].text.find("include") != std::string::npos &&
          (toks[i].text.find("<cassert>") != std::string::npos ||
           toks[i].text.find("<assert.h>") != std::string::npos)) {
        emit(file, toks[i].line, "no-raw-assert",
             "do not include <cassert>; use common/check.h", out);
      }
      continue;
    }
    if (is_ident(toks[i], "assert") && i + 1 < toks.size() &&
        is_punct(toks[i + 1], "(")) {
      emit(file, toks[i].line, "no-raw-assert",
           "raw assert() compiles out in release builds; use TURBO_CHECK "
           "or TURBO_DCHECK",
           out);
    }
  }
}

// --- rule 2: unchecked-i8-cast --------------------------------------------

void rule_unchecked_i8_cast(const SourceFile& file,
                            std::vector<Finding>& out) {
  if (file.rel == "src/common/numeric.h") return;  // home of the helpers
  const Tokens& toks = file.lexed.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "static_cast") || !is_punct(toks[i + 1], "<")) {
      continue;
    }
    std::size_t j = i + 2;
    if (j + 1 < toks.size() && is_ident(toks[j], "std") &&
        is_punct(toks[j + 1], "::")) {
      j += 2;
    }
    if (j + 1 < toks.size() &&
        (is_ident(toks[j], "int8_t") || is_ident(toks[j], "uint8_t")) &&
        is_punct(toks[j + 1], ">")) {
      emit(file, toks[i].line, "unchecked-i8-cast",
           "bare 8-bit narrowing cast; use clamp_to_i8 / saturate_cast<> "
           "from common/numeric.h (or annotate with "
           "turbo-lint: allow-narrowing)",
           out);
    }
  }
}

// --- rule 3: integer-kernel -----------------------------------------------

void rule_integer_kernel(const SourceFile& file, std::vector<Finding>& out) {
  if (file.lexed.tags.count("integer-kernel") == 0) return;
  static const std::set<std::string> kMath = {
      "exp", "log", "sqrt", "pow", "nearbyint", "round", "fma"};
  const Tokens& toks = file.lexed.tokens;
  const char* kMsg =
      "floating-point arithmetic in a file tagged integer-kernel "
      "(annotate the line with turbo-lint: allow-float if deliberate)";
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kNumber && t.is_float) {
      emit(file, t.line, "integer-kernel", kMsg, out);
    } else if (is_ident(t, "float") || is_ident(t, "double") ||
               is_ident(t, "exp_neg")) {
      emit(file, t.line, "integer-kernel", kMsg, out);
    } else if (t.kind == TokKind::kIdent && kMath.count(t.text) > 0 &&
               i >= 2 && is_punct(toks[i - 1], "::") &&
               is_ident(toks[i - 2], "std")) {
      emit(file, t.line, "integer-kernel", kMsg, out);
    }
  }
}

// --- rule 4: method-shape-check -------------------------------------------

// Body of the function definition matching [pattern...] '('; false when
// only declarations exist. On success, [begin, end] span the braces.
bool find_body(const Tokens& toks, const std::vector<std::string>& pattern,
               std::size_t& begin, std::size_t& end, std::size_t& line) {
  for (std::size_t i = 0; i + pattern.size() < toks.size(); ++i) {
    bool match = true;
    for (std::size_t k = 0; k < pattern.size(); ++k) {
      if (toks[i + k].text != pattern[k]) {
        match = false;
        break;
      }
    }
    if (!match) continue;
    std::size_t j = i + pattern.size() - 1;  // at '('
    j = match_paren(toks, j);
    // Skip qualifiers (const, noexcept, override) up to '{' or ';'.
    while (j < toks.size() && !is_punct(toks[j], "{") &&
           !is_punct(toks[j], ";")) {
      ++j;
    }
    if (j >= toks.size() || is_punct(toks[j], ";")) continue;  // declaration
    begin = j;
    end = match_brace(toks, j);
    line = toks[i].line;
    return true;
  }
  return false;
}

bool body_has_check(const Tokens& toks, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::kIdent &&
        toks[i].text.rfind("TURBO_CHECK", 0) == 0) {
      return true;
    }
  }
  return false;
}

void rule_method_shape_check(const Project& project,
                             std::vector<Finding>& out) {
  static const char* kMethods[] = {"prefill", "decode", "attend"};
  for (const SourceFile& file : project.files()) {
    const Tokens& toks = file.lexed.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!is_ident(toks[i], "class") ||
          toks[i + 1].kind != TokKind::kIdent) {
        continue;
      }
      const std::string cls = toks[i + 1].text;
      if (cls == "KvAttention") continue;
      // Scan the base-clause up to '{' or ';' for KvAttention.
      bool derives = false;
      std::size_t j = i + 2;
      bool saw_colon = false;
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";")) {
        if (is_punct(toks[j], ":")) saw_colon = true;
        if (saw_colon && is_ident(toks[j], "KvAttention")) derives = true;
        ++j;
      }
      if (!derives || j >= toks.size() || is_punct(toks[j], ";")) continue;

      for (const char* method : kMethods) {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::size_t line = 0;
        const SourceFile* where = nullptr;
        for (const SourceFile& candidate : project.files()) {
          if (find_body(candidate.lexed.tokens, {cls, "::", method, "("},
                        begin, end, line)) {
            where = &candidate;
            break;
          }
        }
        bool checked = false;
        if (where != nullptr) {
          checked = body_has_check(where->lexed.tokens, begin, end);
        } else if (find_body(toks, {method, "("}, begin, end, line)) {
          where = &file;  // inline definition inside the class body
          checked = body_has_check(toks, begin, end);
        }
        if (where == nullptr) continue;  // implementation not in this tree
        if (!checked) {
          emit(*where, line, "method-shape-check",
               cls + "::" + method +
                   " must validate its input shapes with TURBO_CHECK",
               out);
        }
      }
    }
  }
}

// --- rule 5: unchecked-cache-append ---------------------------------------

void rule_unchecked_cache_append(const SourceFile& file,
                                 std::vector<Finding>& out) {
  const Tokens& toks = file.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "append_token") || !is_punct(toks[i + 1], "(")) {
      continue;
    }
    // Count top-level arguments: only the paged overload takes three.
    const std::size_t close = match_paren(toks, i + 1);
    std::size_t args = 1;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      if (is_punct(toks[j], ")")) --depth;
      if (is_punct(toks[j], ",") && depth == 1) ++args;
    }
    if (args != 3) continue;
    const std::size_t start = statement_start(toks, i);
    // Declarations and definitions name the bool return type.
    bool is_decl = false;
    for (std::size_t j = start; j < i; ++j) {
      if (is_ident(toks[j], "bool")) is_decl = true;
    }
    if (is_decl) continue;
    // Peel the callee chain (obj., this->, ns::) off the end; whatever
    // remains before it is the consuming context.
    std::size_t ctx_end = i;
    while (ctx_end > start) {
      const Token& t = toks[ctx_end - 1];
      if (t.kind == TokKind::kIdent || is_punct(t, ".") ||
          is_punct(t, "->") || is_punct(t, "::")) {
        --ctx_end;
      } else {
        break;
      }
    }
    const bool void_cast = ctx_end >= start + 3 &&
                           is_punct(toks[ctx_end - 3], "(") &&
                           is_ident(toks[ctx_end - 2], "void") &&
                           is_punct(toks[ctx_end - 1], ")");
    if (ctx_end != start && !void_cast) continue;  // result is consumed
    emit(file, toks[i].line, "unchecked-cache-append",
         "PagedKvCache::append_token result discarded; page exhaustion "
         "must be handled (or annotate with "
         "turbo-lint: allow-unchecked-append)",
         out);
  }
}

// --- rules 7, 12, 14: unfaultable I/O entry points ----------------------

// Every entry point that stores, fetches or moves a KV stream across a
// boundary that can fail must take a FaultInjector*, so the failure stays
// injectable and seed-deterministic: a recovery path that cannot be made
// to fail on demand is never tested. Call sites (obj.fetch(...),
// this->handoff(...)) are exempt. One row per boundary:
//  - rule 7, swap I/O in src/serving/swap.*;
//  - rule 12, the replica channel in src/fleet/, the prefill->decode
//    handoff included. The router's private failover plumbing is
//    deliberately outside the set: the contract binds the wire, not the
//    bookkeeping around it;
//  - rule 14, snapshot save/restore in src/serving/snapshot.*. The pure
//    serialize/deserialize helpers are outside the set: the contract
//    binds the store boundary, not the codec.
struct FaultableIo {
  const char* prefix;
  std::set<std::string> fns;
  const char* rule;
  const char* message;  // follows the entry point's name
};

void rule_unfaultable_io(const SourceFile& file, std::vector<Finding>& out) {
  static const FaultableIo kBoundaries[] = {
      {"src/serving/swap.",
       {"store", "store_phantom", "fetch", "swap_in", "swap_out", "promote"},
       "unfaultable-swap-io",
       " stores or fetches a swap stream but takes no FaultInjector*; "
       "every swap I/O path must be fault-injectable (or annotate with "
       "turbo-lint: allow-unfaultable)"},
      {"src/fleet/",
       {"migrate", "migrate_stream", "transfer", "transfer_stream",
        "handoff", "handoff_stream"},
       "unfaultable-replica-channel",
       " moves a KV stream between replicas but takes no FaultInjector*; "
       "every migration path must be fault-injectable (or annotate with "
       "turbo-lint: allow-unfaultable-channel)"},
      {"src/serving/snapshot.",
       {"save", "restore", "save_snapshot", "restore_snapshot",
        "snapshot_to", "restore_from"},
       "unfaultable-snapshot-io",
       " saves or restores a replica snapshot but takes no FaultInjector*; "
       "every crash-recovery I/O path must be fault-injectable (or "
       "annotate with turbo-lint: allow-unfaultable-snapshot)"},
  };
  const Tokens& toks = file.lexed.tokens;
  for (const FaultableIo& io : kBoundaries) {
    if (file.rel.rfind(io.prefix, 0) != 0) continue;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent || io.fns.count(toks[i].text) == 0 ||
          !is_punct(toks[i + 1], "(")) {
        continue;
      }
      // A name preceded by '.' or '->' is a call site, not a signature.
      if (i > 0 &&
          (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        continue;
      }
      const std::size_t close = match_paren(toks, i + 1);
      bool has_injector = false;
      for (std::size_t j = i + 1; j < close; ++j) {
        if (is_ident(toks[j], "FaultInjector")) has_injector = true;
      }
      if (has_injector) continue;
      emit(file, toks[i].line, io.rule, toks[i].text + io.message, out);
    }
  }
}

// --- rule 13: cow-unguarded-page-write ------------------------------------

// The paged cache shares full pages across sequences by refcount
// (copy-on-write); mutating page_data_[...] while another sequence still
// references the page corrupts that sequence's KV. Writes are sanctioned
// only inside the fresh-page allocation sites (append_prefill_block,
// flush_buffer, adopt_sequence — the page was just allocated with one
// reference) or when the surrounding statement proves private ownership
// by comparing the page pool's reference read with ==:
// pages_.refs(...) == or pages_.unref(...) ==.
void rule_cow_unguarded_page_write(const SourceFile& file,
                                   std::vector<Finding>& out) {
  const Tokens& toks = file.lexed.tokens;
  // Body spans of the fresh-page allocation sites.
  static const char* kFreshPageFns[] = {"append_prefill_block",
                                        "flush_buffer", "adopt_sequence"};
  std::vector<std::pair<std::size_t, std::size_t>> fresh;
  for (const char* fn : kFreshPageFns) {
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!is_ident(toks[i], fn) || !is_punct(toks[i + 1], "(")) continue;
      std::size_t j = match_paren(toks, i + 1);
      while (j < toks.size() && !is_punct(toks[j], "{") &&
             !is_punct(toks[j], ";")) {
        ++j;
      }
      if (j >= toks.size() || is_punct(toks[j], ";")) continue;  // call/decl
      fresh.emplace_back(j, match_brace(toks, j));
    }
  }
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "page_data_") || !is_punct(toks[i + 1], "[")) {
      continue;
    }
    // Matching ']' of the subscript.
    int depth = 0;
    std::size_t close = toks.size();
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (is_punct(toks[j], "[")) ++depth;
      if (is_punct(toks[j], "]")) {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
    }
    if (close >= toks.size()) continue;
    // A write is '=' right after the subscript or after a member chain
    // ('==' is a comparison, not a write; the lexer keeps it one token).
    std::size_t j = close + 1;
    while (j + 1 < toks.size() && is_punct(toks[j], ".") &&
           toks[j + 1].kind == TokKind::kIdent) {
      j += 2;
    }
    if (j >= toks.size() || !is_punct(toks[j], "=")) continue;
    bool sanctioned = false;
    for (const auto& [b, e] : fresh) {
      if (i > b && i < e) {
        sanctioned = true;
        break;
      }
    }
    if (sanctioned) continue;
    // Guarded form: the pool's reference read compared with == in the
    // surrounding statement / condition (e.g. `if (pages_.unref(p, 0) ==
    // 0)` before a release-path reset, or `if (pages_.refs(p) == 1)`
    // before a CoW write).
    bool guarded = false;
    const std::size_t lo = i > 40 ? i - 40 : 0;
    for (std::size_t k = lo; k + 3 < i && !guarded; ++k) {
      if (!is_ident(toks[k], "pages_") || !is_punct(toks[k + 1], ".") ||
          !(is_ident(toks[k + 2], "refs") || is_ident(toks[k + 2], "unref")) ||
          !is_punct(toks[k + 3], "(")) {
        continue;
      }
      const std::size_t call_end = match_paren(toks, k + 3);
      guarded = call_end + 1 < i && is_punct(toks[call_end + 1], "==");
    }
    if (guarded) continue;
    emit(file, toks[i].line, "cow-unguarded-page-write",
         "write to page_data_[...] outside a fresh-page allocation site "
         "without a pages_.refs(...) == or pages_.unref(...) == guard: "
         "shared (refcount > 1) pages are copy-on-write and must never be "
         "mutated in place (or annotate with turbo-lint: allow-cow-write)",
         out);
  }
}

// --- rules 8 + 11: loops over unordered containers ------------------------

struct UnorderedLoop {
  std::size_t for_index = 0;   // token index of the `for`
  std::string container;       // the unordered container's identifier
  std::size_t body_begin = 0;  // first token of the body
  std::size_t body_end = 0;    // one past the last body token
};

// Range-for (`for (x : m)`) and iterator loops (`for (auto it =
// m.begin(); ...`) over identifiers known to be unordered containers.
std::vector<UnorderedLoop> collect_unordered_loops(
    const SourceFile& file, const std::set<std::string>& names) {
  std::vector<UnorderedLoop> loops;
  const Tokens& toks = file.lexed.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t open = i + 1;
    const std::size_t close = match_paren(toks, open);
    if (close >= toks.size()) continue;

    std::string container;
    // Range-for: a ':' at header depth 1 splits declaration and range.
    int depth = 0;
    std::size_t colon = 0;
    for (std::size_t j = open; j < close; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      if (is_punct(toks[j], ")")) --depth;
      if (depth == 1 && is_punct(toks[j], ":")) {
        colon = j;
        break;
      }
    }
    if (colon != 0) {
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == TokKind::kIdent && names.count(toks[j].text)) {
          container = toks[j].text;
          break;
        }
      }
    } else {
      // Iterator form: `m.begin()` / `m.cbegin()` in the header.
      for (std::size_t j = open + 1; j + 2 < close; ++j) {
        if (toks[j].kind == TokKind::kIdent && names.count(toks[j].text) &&
            is_punct(toks[j + 1], ".") &&
            (is_ident(toks[j + 2], "begin") ||
             is_ident(toks[j + 2], "cbegin"))) {
          container = toks[j].text;
          break;
        }
      }
    }
    if (container.empty()) continue;

    UnorderedLoop loop;
    loop.for_index = i;
    loop.container = container;
    if (close + 1 < toks.size() && is_punct(toks[close + 1], "{")) {
      loop.body_begin = close + 2;
      loop.body_end = match_brace(toks, close + 1);
    } else {
      loop.body_begin = close + 1;
      std::size_t j = close + 1;
      while (j < toks.size() && !is_punct(toks[j], ";")) ++j;
      loop.body_end = j + 1;
    }
    loops.push_back(loop);
  }
  return loops;
}

// An ordering-sensitive sink inside an unordered loop body.
struct Sink {
  std::size_t line = 0;
  std::string what;
  bool is_snapshot_append = false;  // push_back/emplace_back only
  std::string append_target;        // the vector being appended to
};

const std::set<std::string>& cast_idents() {
  static const std::set<std::string> kCasts = {
      "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
      "saturate_cast"};
  return kCasts;
}

std::vector<Sink> find_sinks(const Tokens& toks, std::size_t begin,
                             std::size_t end) {
  std::vector<Sink> sinks;
  static const char* kOrderedPrefixes[] = {"serialize", "write", "emit",
                                           "print"};
  for (std::size_t i = begin; i < end && i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kPunct) {
      if (t.text == "<" && i > begin &&
          toks[i - 1].kind == TokKind::kIdent &&
          cast_idents().count(toks[i - 1].text) > 0) {
        i = skip_angles(toks, i) - 1;  // template args, not a comparison
        continue;
      }
      if (t.text == "<" || t.text == ">" || t.text == "<=" ||
          t.text == ">=") {
        sinks.push_back({t.line, "order-dependent comparison/selection",
                         false, ""});
      }
      if (t.text == "<<") {
        sinks.push_back({t.line, "stream output", false, ""});
      }
      continue;
    }
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "push_back" || t.text == "emplace_back") {
      Sink s;
      s.line = t.line;
      s.what = "ordered append (" + t.text + ")";
      s.is_snapshot_append = true;
      if (i >= 2 &&
          (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->")) &&
          toks[i - 2].kind == TokKind::kIdent) {
        s.append_target = toks[i - 2].text;
      }
      sinks.push_back(s);
      continue;
    }
    if (t.text == "cout" || t.text == "cerr" || t.text == "printf" ||
        t.text == "fprintf") {
      sinks.push_back({t.line, "console/writer output", false, ""});
      continue;
    }
    if (t.text == "min" || t.text == "max") {
      sinks.push_back({t.line, "min/max selection", false, ""});
      continue;
    }
    for (const char* prefix : kOrderedPrefixes) {
      if (t.text.rfind(prefix, 0) == 0) {
        sinks.push_back({t.line, "serialization/writer call (" + t.text + ")",
                         false, ""});
        break;
      }
    }
  }
  return sinks;
}

// The sanctioned sorted-snapshot idiom: the loop's only sinks append to
// one local vector which is std::sort-ed right after the loop.
bool is_sorted_snapshot(const Tokens& toks, const UnorderedLoop& loop,
                        const std::vector<Sink>& sinks) {
  if (sinks.empty()) return false;
  std::string target;
  for (const Sink& s : sinks) {
    if (!s.is_snapshot_append || s.append_target.empty()) return false;
    if (target.empty()) target = s.append_target;
    if (s.append_target != target) return false;
  }
  const std::size_t horizon = std::min(loop.body_end + 40, toks.size());
  for (std::size_t i = loop.body_end; i + 1 < horizon; ++i) {
    if (is_ident(toks[i], "sort")) {
      for (std::size_t j = i + 1; j < std::min(i + 8, horizon); ++j) {
        if (is_ident(toks[j], target.c_str())) return true;
      }
    }
  }
  return false;
}

void rule_nondeterministic_iteration(const Project& project,
                                     const SourceFile& file,
                                     std::vector<Finding>& out) {
  const Tokens& toks = file.lexed.tokens;
  for (const UnorderedLoop& loop :
       collect_unordered_loops(file, project.unordered_names())) {
    const std::vector<Sink> sinks =
        find_sinks(toks, loop.body_begin, loop.body_end);
    if (sinks.empty()) continue;
    if (is_sorted_snapshot(toks, loop, sinks)) continue;
    std::ostringstream msg;
    msg << "loop over unordered container '" << loop.container
        << "' feeds an ordering-sensitive sink (" << sinks.front().what
        << " at line " << sinks.front().line
        << "); iterate an ordered container or take an explicit sorted "
           "snapshot (or annotate with turbo-lint: allow-unordered-iter)";
    emit(file, toks[loop.for_index].line, "nondeterministic-iteration",
         msg.str(), out);
  }
}

// --- rule 9: unsanctioned-entropy -----------------------------------------

void rule_unsanctioned_entropy(const SourceFile& file,
                               std::vector<Finding>& out) {
  // The seeded RNG wrapper is the one sanctioned entropy owner.
  if (file.rel == "src/common/rng.h" || file.rel == "src/common/rng.cpp") {
    return;
  }
  static const std::set<std::string> kRandFns = {"rand", "srand", "rand_r",
                                                 "drand48"};
  static const std::set<std::string> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  const Tokens& toks = file.lexed.tokens;
  const char* kSuffix =
      "; seeded determinism is the repo contract — draw from "
      "turbo::Rng (src/common/rng.h) instead (or annotate with "
      "turbo-lint: allow-entropy)";
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool called = i + 1 < toks.size() && is_punct(toks[i + 1], "(");
    const bool member_access =
        i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"));

    if (kRandFns.count(t.text) > 0 && called && !member_access) {
      emit(file, t.line, "unsanctioned-entropy",
           t.text + "() draws unseeded process-global entropy" + kSuffix,
           out);
      continue;
    }
    if (t.text == "random_device") {
      emit(file, t.line, "unsanctioned-entropy",
           "std::random_device is hardware entropy, unseedable by design" +
               std::string(kSuffix),
           out);
      continue;
    }
    if (kClocks.count(t.text) > 0 && i + 2 < toks.size() &&
        is_punct(toks[i + 1], "::") && is_ident(toks[i + 2], "now")) {
      // Wall-clock timing is sanctioned in the CLI driver only, where it
      // reports human-facing runtimes and never feeds computation.
      if (file.rel == "tools/turbo_cli.cpp") continue;
      emit(file, t.line, "unsanctioned-entropy",
           "std::chrono::" + t.text +
               "::now() makes results wall-clock-dependent" + kSuffix,
           out);
      continue;
    }
    if ((t.text == "time" || t.text == "clock") && called && !member_access) {
      const bool scoped = i > 0 && is_punct(toks[i - 1], "::");
      const bool std_scoped = scoped && i > 1 && is_ident(toks[i - 2], "std");
      if (scoped && !std_scoped) continue;  // some other namespace's time()
      emit(file, t.line, "unsanctioned-entropy",
           t.text + "() reads the wall clock" + kSuffix, out);
      continue;
    }
    if (t.text == "reinterpret_cast" && i + 2 < toks.size() &&
        is_punct(toks[i + 1], "<")) {
      const std::size_t close = skip_angles(toks, i + 1);
      for (std::size_t j = i + 2; j < close; ++j) {
        if (is_ident(toks[j], "uintptr_t") || is_ident(toks[j], "intptr_t")) {
          emit(file, t.line, "unsanctioned-entropy",
               "pointer-value-as-integer leaks ASLR entropy into results" +
                   std::string(kSuffix),
               out);
          break;
        }
      }
    }
  }
}

// --- rule 10: mutable-global-state ----------------------------------------

bool in_concurrent_dirs(const std::string& rel) {
  return rel.rfind("src/kernels/", 0) == 0 ||
         rel.rfind("src/quant/", 0) == 0 ||
         rel.rfind("src/attention/", 0) == 0;
}

enum class BraceKind { kNamespace, kType, kOther };

// Tokens that disqualify a namespace-scope statement from being a
// mutable object definition.
bool statement_is_exempt(const Tokens& stmt) {
  static const std::set<std::string> kExemptIdents = {
      "const",    "constexpr", "constinit",     "using",   "typedef",
      "template", "friend",    "static_assert", "extern",  "operator",
      "struct",   "class",     "union",         "enum",    "namespace",
      "inline"};
  for (const Token& t : stmt) {
    if (t.kind == TokKind::kIdent && kExemptIdents.count(t.text) > 0) {
      return true;
    }
    if (is_punct(t, "(")) return true;  // function declaration / macro call
  }
  // An object definition needs at least a type and a name.
  std::size_t idents = 0;
  for (const Token& t : stmt) {
    if (t.kind == TokKind::kIdent) ++idents;
  }
  return idents < 2;
}

void rule_mutable_global_state(const SourceFile& file,
                               std::vector<Finding>& out) {
  if (!in_concurrent_dirs(file.rel)) return;
  const Tokens& toks = file.lexed.tokens;
  std::vector<BraceKind> stack;
  Tokens stmt;  // namespace-scope statement being accumulated
  const char* kMsg =
      " — src/kernels, src/quant and src/attention run on the worker pool; "
      "shared mutable state there is a data race and a determinism hazard. "
      "Make it const/constexpr, pass it explicitly, or annotate with "
      "turbo-lint: allow-mutable-global";

  auto at_namespace_scope = [&stack]() {
    for (const BraceKind k : stack) {
      if (k != BraceKind::kNamespace) return false;
    }
    return true;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == TokKind::kDirective) continue;

    if (is_punct(t, "{")) {
      // Classify by the statement head collected so far.
      BraceKind kind = BraceKind::kOther;
      for (const Token& h : stmt) {
        if (is_ident(h, "namespace")) kind = BraceKind::kNamespace;
      }
      if (kind == BraceKind::kOther) {
        for (const Token& h : stmt) {
          if (is_ident(h, "class") || is_ident(h, "struct") ||
              is_ident(h, "union") || is_ident(h, "enum")) {
            kind = BraceKind::kType;
          }
        }
      }
      if (at_namespace_scope() && kind == BraceKind::kOther) {
        // A function body (or initializer) hanging off a namespace-scope
        // head: scan it for mutable function-statics, then skip it.
        const std::size_t close = match_brace(toks, i);
        for (std::size_t j = i + 1; j < close && j < toks.size(); ++j) {
          if (!is_ident(toks[j], "static")) continue;
          bool is_const = false;
          for (std::size_t k = j; k < close && !is_punct(toks[k], ";");
               ++k) {
            if (is_ident(toks[k], "const") ||
                is_ident(toks[k], "constexpr")) {
              is_const = true;
            }
          }
          if (!is_const) {
            emit(file, toks[j].line, "mutable-global-state",
                 "mutable function-static" + std::string(kMsg), out);
          }
        }
        i = close;
        stmt.clear();
        continue;
      }
      stack.push_back(kind);
      stmt.clear();
      continue;
    }
    if (is_punct(t, "}")) {
      if (!stack.empty()) stack.pop_back();
      stmt.clear();
      continue;
    }
    if (is_punct(t, ";")) {
      if (at_namespace_scope() && !stmt.empty() &&
          !statement_is_exempt(stmt)) {
        emit(file, stmt.front().line, "mutable-global-state",
             "mutable namespace-scope object" + std::string(kMsg), out);
      }
      stmt.clear();
      continue;
    }
    if (at_namespace_scope()) stmt.push_back(t);
  }
}

// --- rule 11: unordered-float-reduction -----------------------------------

// Type of the nearest declaration of `name` before token `at` in this
// file: 1 = float/double, -1 = integral/other known type, 0 = unknown.
int nearest_decl_type(const Tokens& toks, std::size_t at,
                      const std::string& name) {
  static const std::set<std::string> kIntTypes = {
      "int",      "unsigned", "long",    "short",   "size_t",  "uint64_t",
      "int64_t",  "uint32_t", "int32_t", "uint16_t", "int16_t", "uint8_t",
      "int8_t",   "bool",     "char",    "ptrdiff_t"};
  for (std::size_t i = at; i > 0; --i) {
    const std::size_t j = i - 1;
    if (!is_ident(toks[j], name.c_str()) || j == 0) continue;
    const Token& prev = toks[j - 1];
    if (prev.kind != TokKind::kIdent) continue;
    if (prev.text == "float" || prev.text == "double") return 1;
    if (kIntTypes.count(prev.text) > 0) return -1;
  }
  return 0;
}

void rule_unordered_float_reduction(const Project& project,
                                    const SourceFile& file,
                                    std::vector<Finding>& out) {
  const Tokens& toks = file.lexed.tokens;
  static const std::set<std::string> kCompound = {"+=", "-=", "*=", "/="};
  for (const UnorderedLoop& loop :
       collect_unordered_loops(file, project.unordered_names())) {
    for (std::size_t i = loop.body_begin;
         i < loop.body_end && i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kPunct ||
          kCompound.count(toks[i].text) == 0 || i == 0) {
        continue;
      }
      const Token& lhs = toks[i - 1];
      if (lhs.kind != TokKind::kIdent) continue;
      int type = nearest_decl_type(toks, i - 1, lhs.text);
      if (type == 0 && project.float_names().count(lhs.text) > 0) type = 1;
      if (type != 1) continue;
      emit(file, toks[i].line, "unordered-float-reduction",
           "float accumulator '" + lhs.text +
               "' reduced over unordered container '" + loop.container +
               "': FP addition is not associative, so the result depends "
               "on the stdlib's hash layout; accumulate over a sorted "
               "snapshot or in integer domain (or annotate with "
               "turbo-lint: allow-unordered-reduction)",
           out);
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> kRules = {
      {1, "no-raw-assert",
       "assert() compiles out in release builds; use TURBO_CHECK / "
       "TURBO_DCHECK",
       ""},
      {2, "unchecked-i8-cast",
       "bare static_cast to int8/uint8 silently truncates; use the checked "
       "helpers in common/numeric.h",
       "allow-narrowing"},
      {3, "integer-kernel",
       "files tagged integer-kernel must stay free of floating-point "
       "arithmetic (FlashQ decode is INT-only by design)",
       "allow-float"},
      {4, "method-shape-check",
       "every KvAttention prefill/decode/attend must TURBO_CHECK its input "
       "shapes",
       ""},
      {5, "unchecked-cache-append",
       "PagedKvCache::append_token's result reports page exhaustion and "
       "must be consumed",
       "allow-unchecked-append"},
      {7, "unfaultable-swap-io",
       "every swap store/fetch entry point must accept a FaultInjector*",
       "allow-unfaultable"},
      {8, "nondeterministic-iteration",
       "iteration over std::unordered_{map,set} must not feed "
       "ordering-sensitive sinks; use an ordered container or a sorted "
       "snapshot",
       "allow-unordered-iter"},
      {9, "unsanctioned-entropy",
       "rand/random_device/clock reads outside src/common/rng.h break "
       "seeded bit-identical runs",
       "allow-entropy"},
      {10, "mutable-global-state",
       "no mutable namespace-scope or function-static state in "
       "src/kernels, src/quant, src/attention (the worker-pool execution "
       "surface)",
       "allow-mutable-global"},
      {11, "unordered-float-reduction",
       "float accumulation over unordered iteration is hash-layout-"
       "dependent; sort first or accumulate in integer domain",
       "allow-unordered-reduction"},
      {12, "unfaultable-replica-channel",
       "every src/fleet migration/transfer entry point must accept a "
       "FaultInjector*",
       "allow-unfaultable-channel"},
      {13, "cow-unguarded-page-write",
       "page_data_[...] writes outside the fresh-page allocation sites "
       "must prove private ownership with a pages_.refs(...) == or "
       "pages_.unref(...) == guard (shared pages are copy-on-write)",
       "allow-cow-write"},
      {14, "unfaultable-snapshot-io",
       "every src/serving/snapshot save/restore entry point must accept "
       "a FaultInjector*",
       "allow-unfaultable-snapshot"},
  };
  return kRules;
}

std::vector<Finding> run_rules(const Project& project) {
  std::vector<Finding> out;
  for (const SourceFile& f : project.files()) {
    rule_no_raw_assert(f, out);
    rule_unchecked_i8_cast(f, out);
    rule_integer_kernel(f, out);
    rule_unchecked_cache_append(f, out);
    rule_unfaultable_io(f, out);
    rule_cow_unguarded_page_write(f, out);
    rule_nondeterministic_iteration(project, f, out);
    rule_unsanctioned_entropy(f, out);
    rule_mutable_global_state(f, out);
    rule_unordered_float_reduction(project, f, out);
  }
  rule_method_shape_check(project, out);

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.rel != b.rel) return a.rel < b.rel;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.message < b.message;
  });
  return out;
}

}  // namespace turbo::lint
