// Prefix-sharing radix KV cache + session workloads (ctest -L prefix).
//
// The contracts under test (the radix index has its own suite,
// radix_index_test): create_with_prefix attaches resident pages by
// refcount bump with zero allocation; the CoW charging identity
// sum(charged_pages) + shared_pages == used_pages survives
// fork/attach/release churn and swap adoption; a full tail buffer whose
// deferred flush hits page exhaustion fails cleanly and the SAME call
// succeeds on retry (the lazy-flush bugfix); session traces drive the
// engine's radix path (fewer prefilled tokens, lower referenced-page
// peak) while length-only traces leave every prefix counter at zero; and
// seeded session runs are bit-identical — the property CI re-checks under
// ASan+UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "kvcache/paged_cache.h"
#include "kvcache/serialization.h"
#include "quant/symmetric.h"
#include "serving/engine.h"
#include "serving/metrics.h"
#include "serving/trace.h"
#include "sim/attention_model.h"
#include "tests/serving_fixtures.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

using serving::EngineConfig;
using serving::EngineResult;
using serving::Outcome;
using serving::Request;
using serving::ServingMetrics;
using serving::TraceConfig;
using test::prefix_digest;
using test::prefix_engine;
using test::session_trace;

std::vector<std::int32_t> iota_ids(std::int32_t first, std::size_t count) {
  std::vector<std::int32_t> ids(count);
  std::iota(ids.begin(), ids.end(), first);
  return ids;
}

// --- Paged cache: prefix attach + CoW charging ------------------------------

class PrefixCacheTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kDim = 16;
  static constexpr std::size_t kPageTokens = 8;
  PagedKvCache cache_{kDim, BitWidth::kInt4, kPageTokens, 16};
  Rng rng_{13};

  std::vector<float> random_vec() {
    std::vector<float> v(kDim);
    rng_.fill_normal(v, 0.0, 1.0);
    return v;
  }

  PagedKvCache::SeqId seq_with_tokens(std::size_t n) {
    const auto seq = cache_.create_sequence();
    for (std::size_t t = 0; t < n; ++t) {
      EXPECT_TRUE(cache_.append_token(seq, random_vec(), random_vec()));
    }
    return seq;
  }

  // The satellite-2 identity: shared pages are charged to nobody, private
  // pages to exactly one owner, so the books always reconcile.
  void expect_reconciled(const std::vector<PagedKvCache::SeqId>& seqs) {
    std::size_t charged = 0;
    for (const auto s : seqs) charged += cache_.charged_pages(s);
    EXPECT_EQ(charged + cache_.shared_pages(), cache_.used_pages());
  }
};

TEST_F(PrefixCacheTest, AttachSharesResidentPagesWithoutAllocation) {
  const auto a = seq_with_tokens(2 * kPageTokens + 3);
  const auto ids = iota_ids(0, 2 * kPageTokens + 3);
  cache_.register_prefix(a, ids);
  // Only the two full pages are indexed — the tail buffer is private.
  EXPECT_EQ(cache_.radix().size(), 2u);

  const std::size_t pages_before = cache_.used_pages();
  const auto attach = cache_.create_with_prefix(ids);
  EXPECT_EQ(attach.matched_tokens, 2 * kPageTokens);
  EXPECT_EQ(cache_.used_pages(), pages_before);  // refcount bump, no alloc
  EXPECT_EQ(cache_.shared_pages(), 2u);
  EXPECT_EQ(cache_.token_count(attach.seq), 2 * kPageTokens);
  EXPECT_EQ(cache_.charged_pages(a), 0u);
  EXPECT_EQ(cache_.charged_pages(attach.seq), 0u);
  expect_reconciled({a, attach.seq});

  // The attached sequence diverges into its own private page.
  for (std::size_t t = 0; t < kPageTokens + 1; ++t) {
    ASSERT_TRUE(cache_.append_token(attach.seq, random_vec(), random_vec()));
  }
  EXPECT_EQ(cache_.used_pages(), pages_before + 1);
  EXPECT_EQ(cache_.charged_pages(attach.seq), 1u);
  EXPECT_EQ(cache_.shared_pages(), 2u);
  expect_reconciled({a, attach.seq});

  // Releasing the registering sequence keeps the pages alive (and
  // indexed) for the attached one.
  cache_.release_sequence(a);
  EXPECT_EQ(cache_.radix().size(), 2u);
  EXPECT_EQ(cache_.shared_pages(), 0u);
  EXPECT_EQ(cache_.charged_pages(attach.seq), 3u);
  expect_reconciled({attach.seq});

  // Once the last referent dies the pages leave the index with it: the
  // radix holds no reference of its own, so a fresh prompt re-prefills.
  cache_.release_sequence(attach.seq);
  EXPECT_EQ(cache_.used_pages(), 0u);
  EXPECT_EQ(cache_.radix().size(), 0u);
  EXPECT_EQ(cache_.create_with_prefix(ids).matched_tokens, 0u);
}

TEST_F(PrefixCacheTest, ChargingReconcilesUnderForkAttachReleaseChurn) {
  const auto root = seq_with_tokens(3 * kPageTokens + 2);
  const auto ids = iota_ids(0, 3 * kPageTokens + 2);
  cache_.register_prefix(root, ids);
  std::vector<PagedKvCache::SeqId> live = {root};
  expect_reconciled(live);

  // Attach two prefix sharers and fork one of them.
  for (int i = 0; i < 2; ++i) {
    const auto at = cache_.create_with_prefix(ids);
    EXPECT_EQ(at.matched_tokens, 3 * kPageTokens);
    live.push_back(at.seq);
    expect_reconciled(live);
  }
  live.push_back(cache_.fork_sequence(live[1]));
  expect_reconciled(live);

  // Diverge every sharer by a private page, reconciling at each step.
  for (std::size_t i = 1; i < live.size(); ++i) {
    for (std::size_t t = 0; t < kPageTokens + 1; ++t) {
      ASSERT_TRUE(cache_.append_token(live[i], random_vec(), random_vec()));
    }
    expect_reconciled(live);
  }

  // Release in mixed order (registrar first, then sharers); the identity
  // must hold at every intermediate state and end at zero pages.
  while (!live.empty()) {
    cache_.release_sequence(live.front());
    live.erase(live.begin());
    expect_reconciled(live);
  }
  EXPECT_EQ(cache_.used_pages(), 0u);
  EXPECT_EQ(cache_.shared_pages(), 0u);
  EXPECT_EQ(cache_.radix().size(), 0u);
}

TEST_F(PrefixCacheTest, AdoptedSequenceReRegistersAfterSwapRoundTrip) {
  // Swap-out/in must compose with prefix sharing: a sequence serialized,
  // released (its index entries die with it) and adopted back can
  // re-register and serve attachments again.
  const auto a = seq_with_tokens(2 * kPageTokens + 1);
  const auto ids = iota_ids(0, 2 * kPageTokens + 1);
  cache_.register_prefix(a, ids);
  const auto bytes = serialize_sequence(cache_, a);
  cache_.release_sequence(a);
  EXPECT_EQ(cache_.radix().size(), 0u);
  EXPECT_EQ(cache_.used_pages(), 0u);

  const auto adopted = deserialize_sequence(cache_, bytes);
  ASSERT_TRUE(adopted.has_value());
  EXPECT_EQ(cache_.token_count(*adopted), 2 * kPageTokens + 1);
  cache_.register_prefix(*adopted, ids);
  EXPECT_EQ(cache_.radix().size(), 2u);

  const auto attach = cache_.create_with_prefix(ids);
  EXPECT_EQ(attach.matched_tokens, 2 * kPageTokens);
  EXPECT_EQ(cache_.shared_pages(), 2u);
  expect_reconciled({*adopted, attach.seq});

  // memory_bytes must not double-count shared pages: attaching added
  // only the new sequence's (empty) tail buffers.
  const std::size_t before = cache_.memory_bytes();
  const auto again = cache_.create_with_prefix(ids);
  EXPECT_EQ(again.matched_tokens, 2 * kPageTokens);
  EXPECT_LT(cache_.memory_bytes() - before, kPageTokens * kDim);
  expect_reconciled({*adopted, attach.seq, again.seq});
}

// --- Lazy-flush bugfix: exhaustion mid-prefill is retryable -----------------

TEST(PrefillRetryTest, FullBufferFlushExhaustionFailsCleanAndRetries) {
  constexpr std::size_t kDim = 16;
  constexpr std::size_t kPageTokens = 8;
  PagedKvCache cache(kDim, BitWidth::kInt4, kPageTokens, 1);

  // A hog takes the only page.
  const auto hog = cache.create_sequence();
  const MatrixF full = test::random_matrix(kPageTokens, kDim, 1);
  ASSERT_TRUE(cache.append_prefill_block(hog, quantize_tile_int8(full),
                                         quantize_tile_int8(full)));
  ASSERT_EQ(cache.free_pages(), 0u);

  // Two ragged tiles fill the victim's tail buffer exactly; the flush is
  // deferred until the next append needs the room.
  const auto seq = cache.create_sequence();
  const MatrixF five = test::random_matrix(5, kDim, 2);
  const MatrixF three = test::random_matrix(3, kDim, 3);
  ASSERT_TRUE(cache.append_prefill_block(seq, quantize_tile_int8(five),
                                         quantize_tile_int8(five)));
  ASSERT_TRUE(cache.append_prefill_block(seq, quantize_tile_int8(three),
                                         quantize_tile_int8(three)));
  EXPECT_EQ(cache.key_buffer(seq).size(), kPageTokens);
  EXPECT_EQ(cache.token_count(seq), kPageTokens);

  // The third tile forces the deferred flush into an exhausted pool:
  // before the fix this path aborted on a consistency check; now it
  // reports failure and loses nothing.
  const MatrixF two = test::random_matrix(2, kDim, 4);
  EXPECT_FALSE(cache.append_prefill_block(seq, quantize_tile_int8(two),
                                          quantize_tile_int8(two)));
  EXPECT_EQ(cache.token_count(seq), kPageTokens);
  EXPECT_EQ(cache.key_buffer(seq).size(), kPageTokens);

  // Evicting the hog frees a page; the SAME call now succeeds — the
  // caller-side evict-and-retry contract append_token already honored.
  cache.release_sequence(hog);
  ASSERT_TRUE(cache.append_prefill_block(seq, quantize_tile_int8(two),
                                         quantize_tile_int8(two)));
  EXPECT_EQ(cache.token_count(seq), kPageTokens + 2);
  EXPECT_EQ(cache.blocks(seq).size(), 1u);
  EXPECT_EQ(cache.key_buffer(seq).size(), 2u);
}

// --- Session traces ---------------------------------------------------------

TEST(SessionTraceTest, DefaultKnobsCarryNoTokenIds) {
  for (const Request& r : serving::generate_trace(TraceConfig{})) {
    EXPECT_TRUE(r.prompt_ids.empty());
    EXPECT_EQ(r.prefix_hit_tokens, 0u);
  }
}

TEST(SessionTraceTest, SessionModeShapesIdsAndOrdering) {
  const auto a = serving::generate_trace(session_trace());
  const auto b = serving::generate_trace(session_trace());
  ASSERT_GT(a.size(), 30u);
  ASSERT_EQ(a.size(), b.size());
  std::size_t multi_turn = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Request& r = a[i];
    // Ids always materialize in session mode and match the length.
    ASSERT_EQ(r.prompt_ids.size(), r.prompt_tokens);
    // fraction == 1.0: every prompt opens with the shared system prompt.
    ASSERT_GE(r.prompt_tokens, 512u);
    for (std::int32_t t = 0; t < 512; ++t) {
      ASSERT_EQ(r.prompt_ids[static_cast<std::size_t>(t)], t);
    }
    if (r.prompt_tokens > 512u + 48u) ++multi_turn;
    // Follow-up turns interleave with later sessions; arrivals must still
    // be non-decreasing for Engine::submit.
    if (i > 0) {
      ASSERT_GE(r.arrival_s, a[i - 1].arrival_s);
    }
    // Deterministic: ids included, not just lengths.
    ASSERT_EQ(r.prompt_ids, b[i].prompt_ids);
    ASSERT_EQ(r.arrival_s, b[i].arrival_s);
  }
  // History re-submission actually grows prompts past the shared prefix.
  EXPECT_GT(multi_turn, 0u);
}

// --- Engine: prefix attach, counters, determinism ---------------------------

Request ids_request(std::uint64_t id, double arrival, std::int32_t first,
                    std::size_t count, std::size_t gen) {
  Request r;
  r.id = id;
  r.arrival_s = arrival;
  r.prompt_tokens = count;
  r.max_new_tokens = gen;
  r.prompt_ids = iota_ids(first, count);
  return r;
}

const Request& by_id(const EngineResult& r, std::uint64_t id) {
  for (const Request& q : r.requests) {
    if (q.id == id) return q;
  }
  ADD_FAILURE() << "request " << id << " missing";
  return r.requests.front();
}

TEST(EnginePrefixTest, FollowUpAttachesRetainedPrefixPages) {
  // Turn 1 finishes long before turn 2 arrives, so by then its pages sit
  // at refcount zero in the retained pool — the follow-up must still
  // attach them instead of re-prefilling (page_tokens = 64: 256 prompt
  // tokens = 4 registered pages).
  const EngineConfig cfg = prefix_engine();
  std::vector<Request> trace = {ids_request(1, 0.0, 0, 256, 8),
                                ids_request(2, 5.0, 0, 320, 8)};
  const EngineResult r = run_engine(cfg, trace);
  ASSERT_EQ(r.requests.size(), 2u);
  EXPECT_EQ(by_id(r, 1).outcome, Outcome::kCompleted);
  EXPECT_EQ(by_id(r, 2).outcome, Outcome::kCompleted);
  EXPECT_EQ(by_id(r, 1).prefix_hit_tokens, 0u);
  EXPECT_EQ(by_id(r, 2).prefix_hit_tokens, 256u);
  EXPECT_EQ(r.prefix_hit_tokens, 256u);
  EXPECT_EQ(r.prefix_hit_requests, 1u);
  EXPECT_EQ(r.prefix_pages_attached, 4u);
  // Only the 64-token suffix of turn 2 ran through chunked prefill.
  EXPECT_EQ(r.prefilled_tokens, 256u + 64u);
  EXPECT_GT(r.peak_referenced_pages, 0u);

  // The metrics rollup carries every prefix counter (EngineCounters).
  const ServingMetrics m = summarize(r);
  EXPECT_EQ(m.prefix_hit_tokens, r.prefix_hit_tokens);
  EXPECT_EQ(m.prefix_hit_requests, r.prefix_hit_requests);
  EXPECT_EQ(m.prefix_pages_attached, r.prefix_pages_attached);
  EXPECT_EQ(m.retained_pages_reclaimed, r.retained_pages_reclaimed);
  EXPECT_EQ(m.prefilled_tokens, r.prefilled_tokens);
  EXPECT_EQ(m.peak_referenced_pages, r.peak_referenced_pages);
}

TEST(EnginePrefixTest, IdenticalResubmissionStillPrefillsAChunk) {
  // An exact duplicate prompt matches at most prompt_tokens - 1, so the
  // last page always prefills and first_token_s has a chunk to stamp:
  // 256-token duplicate => 255-token cap => 3 of 4 pages attach.
  const EngineConfig cfg = prefix_engine();
  std::vector<Request> trace = {ids_request(1, 0.0, 0, 256, 4),
                                ids_request(2, 5.0, 0, 256, 4)};
  const EngineResult r = run_engine(cfg, trace);
  const Request& dup = by_id(r, 2);
  EXPECT_EQ(dup.outcome, Outcome::kCompleted);
  EXPECT_EQ(dup.prefix_hit_tokens, 192u);
  EXPECT_GE(dup.first_token_s, 0.0);
  EXPECT_GT(dup.first_token_s, dup.prefill_start_s);
  EXPECT_EQ(r.prefilled_tokens, 256u + 64u);
}

TEST(EnginePrefixTest, LengthOnlyTraceTouchesNoPrefixMachinery) {
  TraceConfig t;
  t.arrival_rate = 4.0;
  t.duration_s = 10.0;
  t.seed = 7;
  const EngineResult r = run_engine(prefix_engine(), serving::generate_trace(t));
  EXPECT_EQ(r.prefix_hit_tokens, 0u);
  EXPECT_EQ(r.prefix_hit_requests, 0u);
  EXPECT_EQ(r.prefix_pages_attached, 0u);
  EXPECT_EQ(r.retained_pages_reclaimed, 0u);
  EXPECT_GT(r.prefilled_tokens, 0u);
  for (const Request& q : r.requests) {
    EXPECT_EQ(q.prefix_hit_tokens, 0u);
  }
}

TEST(EnginePrefixTest, SessionTracePrefillsLessAndReferencesFewerPages) {
  const std::vector<Request> trace =
      serving::generate_trace(session_trace());
  std::vector<Request> stripped = trace;
  for (Request& q : stripped) q.prompt_ids.clear();

  const EngineConfig cfg = prefix_engine();
  const EngineResult with = run_engine(cfg, trace);
  const EngineResult without = run_engine(cfg, stripped);

  EXPECT_GT(with.prefix_hit_requests, 0u);
  EXPECT_GT(with.prefix_hit_tokens, 0u);
  EXPECT_EQ(without.prefix_hit_tokens, 0u);
  // The headline: shared prefixes and re-submitted histories are served
  // from resident pages, not re-prefilled, and the referenced-page peak
  // shrinks with them.
  EXPECT_LT(with.prefilled_tokens, without.prefilled_tokens);
  EXPECT_LE(with.peak_referenced_pages, without.peak_referenced_pages);
  // Per-request attribution reconciles with the engine total.
  std::size_t sum = 0;
  for (const Request& q : with.requests) sum += q.prefix_hit_tokens;
  EXPECT_EQ(sum, with.prefix_hit_tokens);
}

TEST(EnginePrefixTest, ExhaustionReclaimsRetainedPagesLru) {
  // Squeeze the pool until fresh admissions must evict parked prefix
  // pages: the retained pool is cache, and reclaiming it (LRU) is how
  // the engine serves new work instead of rejecting it.
  EngineConfig cfg = prefix_engine();
  cfg.memory_headroom = 0.20;
  const EngineResult r =
      run_engine(cfg, serving::generate_trace(session_trace()));
  EXPECT_GT(r.retained_pages_reclaimed, 0u);
  EXPECT_FALSE(r.hit_time_limit);
}

// Admission matches a prompt's resident prefix and then allocates its
// suffix. When the pool is exhausted, that allocation reclaims the
// least-recently-retained pages, and matched pages sitting in the
// retained pool must not be among them: reclaiming one would free a page
// while it is being attached, or hand it back as the same request's own
// fresh page, and publishing the prompt would hit "page already
// indexed". This four-turn session run on a tight pool reclaims
// thousands of retained pages; every request must end completed, once,
// with consistent prefix accounting.
TEST(EnginePrefixTest, ExhaustionNeverReclaimsPagesBeingAttached) {
  EngineConfig cfg = prefix_engine();
  cfg.memory_headroom = 0.25;
  TraceConfig t;
  t.arrival_rate = 4.0;
  t.duration_s = 60.0;
  t.seed = 29;
  t.session_turns = 4;
  t.shared_prefix_tokens = 512;
  t.shared_prefix_fraction = 0.9;
  t.session_gap_s = 1.0;
  t.agentic_fraction = 0.4;
  const std::vector<Request> trace = serving::generate_trace(t);
  const EngineResult r = run_engine(cfg, trace);
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_GT(r.retained_pages_reclaimed, 1000u);
  ASSERT_EQ(r.requests.size(), trace.size());
  std::vector<std::uint64_t> ids;
  std::size_t hit_tokens = 0;
  for (const Request& q : r.requests) {
    ids.push_back(q.id);
    EXPECT_EQ(q.outcome, Outcome::kCompleted) << q.id;
    EXPECT_EQ(q.generated, q.max_new_tokens) << q.id;
    hit_tokens += q.prefix_hit_tokens;
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_EQ(hit_tokens, r.prefix_hit_tokens);
  // Re-admitted victims re-attach pages too, beyond the admission hits.
  EXPECT_GE(r.prefix_pages_attached * cfg.page_tokens, r.prefix_hit_tokens);
}

TEST(EnginePrefixTest, SeededSessionRunsAreBitIdentical) {
  const std::vector<Request> trace =
      serving::generate_trace(session_trace());
  EngineConfig cfg = prefix_engine();
  cfg.memory_headroom = 0.25;  // pressure: attach, evict and reclaim paths
  const EngineResult a = run_engine(cfg, trace);
  const EngineResult b = run_engine(cfg, trace);
  EXPECT_EQ(prefix_digest(a), prefix_digest(b));
}

}  // namespace
}  // namespace turbo
