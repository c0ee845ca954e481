// Measured CPU-kernel microbenchmarks (google-benchmark).
//
// These complement the analytical GPU model with real measured numbers
// for every primitive this library implements: quantization stages,
// packing, SAS vs libm exponentiation, integer vs float matmuls, and the
// end-to-end attention kernels. On the CPU substrate the *relative*
// behaviour (SAS cheaper than expf, INT8 path touching 4x less memory)
// mirrors the GPU argument.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#if defined(TURBO_HAVE_LIBMVEC)
#include <immintrin.h>
#endif

#include "attention/flash.h"
#include "attention/reference.h"
#include "attention/turbo.h"
#include "kernels/dispatch.h"
#include "kernels/fused_decode.h"
#include "kernels/fused_prefill.h"
#include "common/fp16.h"
#include "common/rng.h"
#include "kvcache/quantized_kv_cache.h"
#include "kvcache/radix_index.h"
#include "quant/asymmetric.h"
#include "quant/packing.h"
#include "quant/progressive.h"
#include "quant/progressive_paths.h"
#include "quant/symmetric.h"
#include "softmax/sas.h"
#include "softmax/sas_paths.h"
#include "softmax/softmax.h"

namespace {

using namespace turbo;

MatrixF random_matrix(std::size_t rows, std::size_t cols,
                      std::uint64_t seed) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  rng.fill_normal(m.flat(), 0.0, 1.0);
  return m;
}

void BM_Fp16Round(benchmark::State& state) {
  std::vector<float> v(4096);
  Rng rng(1);
  rng.fill_normal(v, 0.0, 10.0);
  for (auto _ : state) {
    std::vector<float> copy = v;
    round_span_to_fp16(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Fp16Round);

void BM_QuantizeSymmetricInt8(benchmark::State& state) {
  const MatrixF tile = random_matrix(64, 128, 2);
  for (auto _ : state) {
    Int8Tile q = quantize_tile_int8(tile);
    benchmark::DoNotOptimize(q.q.data());
  }
  state.SetItemsProcessed(state.iterations() * tile.size());
}
BENCHMARK(BM_QuantizeSymmetricInt8);

void BM_ProgressiveDecompress(benchmark::State& state) {
  const Int8Tile tile = quantize_tile_int8(random_matrix(64, 128, 4));
  const ProgressiveBlock b =
      progressive_compress(tile.q, tile.scale, BitWidth::kInt4);
  for (auto _ : state) {
    MatrixI8 back = progressive_decompress_int8(b);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetItemsProcessed(state.iterations() * tile.q.size());
}
BENCHMARK(BM_ProgressiveDecompress);

void BM_PackCodes(benchmark::State& state) {
  std::vector<std::uint8_t> codes(8192, 0x5);
  for (auto _ : state) {
    auto packed = pack_codes(codes, BitWidth::kInt4);
    benchmark::DoNotOptimize(packed.data());
  }
  state.SetItemsProcessed(state.iterations() * codes.size());
}
BENCHMARK(BM_PackCodes);

// Rows that run 9 repetitions each, reported as their mean, median,
// stddev, cv and min, so that one row's change can be told from this
// host's swings between runs: the second-stage rows, the exponent rows
// and the *FusedEntry rows.
void entry_rows(benchmark::internal::Benchmark* b) {
  b->Repetitions(9)->DisplayAggregatesOnly(true)->ComputeStatistics(
      "min", [](const std::vector<double>& v) {
        return *std::min_element(v.begin(), v.end());
      });
}

// The work count of an entry_rows row: `items` per iteration, reported as
// the counter time_per_item, CPU time over items (an inverted rate).
// google-benchmark aggregates every counter on its own, so a rate's min
// would be the slowest repetition's rate; a time's min is the fastest
// repetition's, and a _min row's time_per_item is its CPU time over the
// items.
void per_item(benchmark::State& state, std::size_t items) {
  state.counters["time_per_item"] = benchmark::Counter(
      static_cast<double>(items),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

// The row of a dispatch table (detail::fused_entries(), sas_paths() or
// progressive_paths()) that a bench's first argument names, its name as
// the bench's label, or nullptr (and the bench skipped) when this build or
// CPU lacks it.
template <typename Row>
const Row* path_arg(benchmark::State& state, std::span<const Row> table) {
  const auto i = static_cast<std::size_t>(state.range(0));
  if (i >= table.size() || !table[i].supported) {
    state.SkipWithError("path not compiled or not supported here");
    return nullptr;
  }
  state.SetLabel(table[i].name);
  return &table[i];
}

// The second stage on its own, one row per compiled path of
// progressive_compress ({path, bits}: path 0 scalar, 1 avx512; see
// quant/progressive_paths.h) on a 64 x 128 stage-1 tile, a prefill block
// of head dim 128. A path this build or CPU lacks is skipped.
void BM_ProgressiveCompress(benchmark::State& state) {
  const detail::ProgressivePath* path =
      path_arg(state, detail::progressive_paths());
  if (path == nullptr) return;
  const BitWidth bits = state.range(1) == 2 ? BitWidth::kInt2
                                            : BitWidth::kInt4;
  const Int8Tile tile = quantize_tile_int8(random_matrix(64, 128, 3));
  for (auto _ : state) {
    ProgressiveBlock b = path->compress(tile.q, bits);
    benchmark::DoNotOptimize(b.packed.data());
  }
  per_item(state, tile.q.size());
}
BENCHMARK(BM_ProgressiveCompress)
    ->ArgsProduct({{0, 1}, {2, 4}})
    ->Apply(entry_rows);

// SAS vs libm exponentiation — the Section 4 claim, measured. Every
// exponent row runs the same 4,096 inputs in [-6, 0].
std::vector<float> exp_inputs() {
  std::vector<float> x(4096);
  Rng rng(5);
  for (float& v : x) v = static_cast<float>(rng.uniform(-6.0, 0.0));
  return x;
}

void BM_ExpLibm(benchmark::State& state) {
  const std::vector<float> x = exp_inputs();
  for (auto _ : state) {
    float acc = 0.0f;
    for (float v : x) acc += std::exp(v);
    benchmark::DoNotOptimize(acc);
  }
  per_item(state, x.size());
}
BENCHMARK(BM_ExpLibm)->Apply(entry_rows);

// The production configuration (FP16 arithmetic, n_r = -6), one call per
// element, as the prefill kernel runs it.
void BM_ExpSas(benchmark::State& state) {
  const Sas sas;
  const std::vector<float> x = exp_inputs();
  for (auto _ : state) {
    float acc = 0.0f;
    for (float v : x) acc += sas.exp_neg(v);
    benchmark::DoNotOptimize(acc);
  }
  per_item(state, x.size());
}
BENCHMARK(BM_ExpSas)->Apply(entry_rows);

// Same values through the batch path the kernels run, Sas::apply, one row
// per compiled path (0 scalar, 1 avx2, 2 avx512, 3 avx512fp16; see
// softmax/sas_paths.h), each bit-identical to BM_ExpSas's results. A path
// this build or CPU lacks is skipped.
void BM_ExpSasApply(benchmark::State& state) {
  const detail::SasPath* path = path_arg(state, detail::sas_paths());
  if (path == nullptr) return;
  const Sas sas;
  const std::vector<float> x = exp_inputs();
  std::vector<float> y(x.size());
  for (auto _ : state) {
    y = x;
    path->apply(sas, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  per_item(state, x.size());
}
BENCHMARK(BM_ExpSasApply)->DenseRange(0, 3)->Apply(entry_rows);

#if defined(TURBO_HAVE_LIBMVEC)
// glibc's 16-lane expf (libmvec), the vector FP32 exponent a CPU
// FlashAttention would use, on the same values in place, as
// BM_ExpSasApply runs them. Built where CMake finds libmvec; skipped on a
// CPU without AVX-512.
extern "C" __m512 _ZGVeN16v_expf(__m512 x);

__attribute__((target("avx512f"))) void libmvec_exp(std::vector<float>& y) {
  for (std::size_t i = 0; i < y.size(); i += 16) {
    _mm512_storeu_ps(y.data() + i,
                     _ZGVeN16v_expf(_mm512_loadu_ps(y.data() + i)));
  }
}

void BM_ExpLibmvec(benchmark::State& state) {
  if (!__builtin_cpu_supports("avx512f")) {
    state.SkipWithError("libmvec's 16-lane expf needs AVX-512");
    return;
  }
  const std::vector<float> x = exp_inputs();
  std::vector<float> y(x.size());
  for (auto _ : state) {
    y = x;
    libmvec_exp(y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  per_item(state, x.size());
}
BENCHMARK(BM_ExpLibmvec)->Apply(entry_rows);
#endif

void BM_SoftmaxExact(benchmark::State& state) {
  const MatrixF scores = random_matrix(64, 1024, 6);
  for (auto _ : state) {
    MatrixF p = softmax_rows(scores);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_SoftmaxExact);

void BM_SoftmaxSas(benchmark::State& state) {
  const Sas sas(SasConfig{.fp16_arithmetic = false});
  const MatrixF scores = random_matrix(64, 1024, 6);
  for (auto _ : state) {
    MatrixF p = sas.softmax(scores);
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * scores.size());
}
BENCHMARK(BM_SoftmaxSas);

void BM_MatmulFloat(benchmark::State& state) {
  const MatrixF a = random_matrix(64, 128, 7);
  const MatrixF b = random_matrix(64, 128, 8);
  for (auto _ : state) {
    MatrixF c = matmul_transposed(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 128);
}
BENCHMARK(BM_MatmulFloat);

void BM_MatmulInt8(benchmark::State& state) {
  const Int8Tile a = quantize_tile_int8(random_matrix(64, 128, 7));
  const Int8Tile b = quantize_tile_int8(random_matrix(64, 128, 8));
  for (auto _ : state) {
    MatrixI32 c = matmul_transposed_i8(a.q, b.q);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 64 * 64 * 128);
}
BENCHMARK(BM_MatmulInt8);

void BM_ReferenceAttention(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MatrixF q = random_matrix(n, 64, 9);
  const MatrixF k = random_matrix(n, 64, 10);
  const MatrixF v = random_matrix(n, 64, 11);
  AttentionConfig cfg;
  for (auto _ : state) {
    MatrixF o = reference_attention(q, k, v, cfg);
    benchmark::DoNotOptimize(o.data());
  }
}
BENCHMARK(BM_ReferenceAttention)->Arg(256)->Arg(512);

void BM_FlashAttentionFp16(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const MatrixF q = random_matrix(n, 64, 9);
  // An FP16 cache holds K/V rounded; the kernel reads them as given.
  MatrixF k = random_matrix(n, 64, 10);
  MatrixF v = random_matrix(n, 64, 11);
  round_span_to_fp16(k.flat());
  round_span_to_fp16(v.flat());
  AttentionConfig cfg;
  for (auto _ : state) {
    FlashResult r = flash_attention(q, k, v, cfg);
    benchmark::DoNotOptimize(r.o.data());
  }
}
BENCHMARK(BM_FlashAttentionFp16)->Arg(256)->Arg(512);

// Every output names the fused entry the dispatched kernels run, and the
// path Sas::apply runs.
const bool kFusedEntryContext = [] {
  benchmark::AddCustomContext("fused_entry", detail::fused_entry().name);
  benchmark::AddCustomContext("sas_path", detail::sas_path().name);
  return true;
}();

// Prefill benches take {prompt, head_dim} from their arguments `arg` and
// `arg + 1`; {1024, 128} is the end-to-end benchmark's prefill_1k shape.
// Each runs one prefill kernel (same signature as turbo_attention_prefill)
// without a cache.
void run_prefill(benchmark::State& state, detail::FusedPrefillFn prefill,
                 int arg = 0) {
  const std::size_t n = static_cast<std::size_t>(state.range(arg));
  const std::size_t d = static_cast<std::size_t>(state.range(arg + 1));
  const MatrixF q = random_matrix(n, d, 9);
  const MatrixF k = random_matrix(n, d, 10);
  const MatrixF v = random_matrix(n, d, 11);
  AttentionConfig cfg;
  const Sas sas;
  for (auto _ : state) {
    TurboPrefillResult r = prefill(q, k, v, cfg, sas, nullptr);
    benchmark::DoNotOptimize(r.o.data());
  }
}

void BM_TurboPrefill(benchmark::State& state) {
  run_prefill(state, &turbo_attention_prefill);
}
BENCHMARK(BM_TurboPrefill)
    ->Args({256, 64})
    ->Args({512, 64})
    ->Args({1024, 128});

void BM_TurboPrefillFused(benchmark::State& state) {
  // The kernel TurboKvAttention runs — bit-identical output.
  run_prefill(state, &fused_turbo_prefill);
}
BENCHMARK(BM_TurboPrefillFused)
    ->Args({256, 64})
    ->Args({512, 64})
    ->Args({1024, 128});

void BM_TurboPrefillFusedEntry(benchmark::State& state) {
  // {entry, prompt, head_dim}: one compiled entry through the detail seam
  // (0 baseline, 1 avx2, 2 avx512vnni, 3 amx), so the rows show each ISA
  // side by side on any host that runs them.
  if (const auto* e = path_arg(state, detail::fused_entries())) {
    run_prefill(state, e->prefill, 1);
  }
}
BENCHMARK(BM_TurboPrefillFusedEntry)
    ->ArgsProduct({{0, 1, 2, 3}, {1024, 4096}, {128}})
    ->Apply(entry_rows);

// Decode benches take {context, head_dim}; head_dim 128 is the model
// profiles' (and the end-to-end benchmark's).
QuantizedKvCache decode_cache(std::size_t ctx, std::size_t d) {
  const MatrixF k = random_matrix(ctx, d, 12);
  const MatrixF v = random_matrix(ctx, d, 13);
  const MatrixF qp = random_matrix(ctx, d, 14);
  QuantizedKvCache cache(d, BitWidth::kInt4, 64, 64);
  turbo_attention_prefill(qp, k, v, AttentionConfig{}, Sas{}, &cache);
  return cache;
}

void BM_TurboDecode(benchmark::State& state) {
  const std::size_t ctx = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const QuantizedKvCache cache = decode_cache(ctx, d);
  AttentionConfig cfg;
  const Sas sas;
  std::vector<float> q(d, 0.3f);
  for (auto _ : state) {
    auto o = turbo_attention_decode(q, cache, cfg, sas);
    benchmark::DoNotOptimize(o.data());
  }
  state.SetItemsProcessed(state.iterations() * ctx * d);
}
BENCHMARK(BM_TurboDecode)
    ->Args({1024, 64})
    ->Args({4096, 64})
    ->Args({1024, 128})
    ->Args({4096, 128});

void BM_TurboDecodeFused(benchmark::State& state) {
  // Same workload as BM_TurboDecode through the fused kernel (the one
  // TurboKvAttention runs) — bit-identical output.
  const std::size_t ctx = static_cast<std::size_t>(state.range(0));
  const std::size_t d = static_cast<std::size_t>(state.range(1));
  const QuantizedKvCache cache = decode_cache(ctx, d);
  AttentionConfig cfg;
  const Sas sas;
  std::vector<float> q(d, 0.3f);
  for (auto _ : state) {
    auto o = fused_turbo_decode(q, cache, cfg, sas);
    benchmark::DoNotOptimize(o.data());
  }
  state.SetItemsProcessed(state.iterations() * ctx * d);
}
BENCHMARK(BM_TurboDecodeFused)
    ->Args({1024, 64})
    ->Args({4096, 64})
    ->Args({1024, 128})
    ->Args({4096, 128});

// One compiled entry's decode over `cache`, the query 0.3 everywhere.
void run_decode_entry(benchmark::State& state, const detail::FusedEntry& e,
                      const QuantizedKvCache& cache) {
  const std::size_t d = cache.head_dim();
  std::vector<const KvBlock*> blocks;
  for (std::size_t j = 0; j < cache.block_count(); ++j) {
    blocks.push_back(&cache.block(j));
  }
  AttentionConfig cfg;
  const Sas sas;
  std::vector<float> q(d, 0.3f);
  for (auto _ : state) {
    auto o = e.decode(q, blocks, cache.key_buffer(), cache.value_buffer(),
                      cfg, sas);
    benchmark::DoNotOptimize(o.data());
  }
  per_item(state, cache.token_count() * d);
}

void BM_TurboDecodeFusedEntry(benchmark::State& state) {
  // {entry, context, head_dim}: BM_TurboDecodeFused's workload through one
  // compiled entry (0 baseline, 1 avx2, 2 avx512vnni, 3 amx, which runs
  // the avx512vnni decode).
  if (const auto* e = path_arg(state, detail::fused_entries())) {
    run_decode_entry(state, *e,
                     decode_cache(static_cast<std::size_t>(state.range(1)),
                                  static_cast<std::size_t>(state.range(2))));
  }
}
BENCHMARK(BM_TurboDecodeFusedEntry)
    ->ArgsProduct({{0, 1, 2, 3}, {1024, 4096}, {128}})
    ->Apply(entry_rows);

void BM_TurboDecodeFusedEntryAppended(benchmark::State& state) {
  // {entry, prompt, appended, head_dim}: a cache built like decode_512's,
  // a prefill, then tokens appended through the decode buffer, whose
  // flushes are the blocks where a channel's second stage can clamp
  // (tokens past the buffer's universal scale hold +-127), so P~V's table
  // fallback runs. {256, 512} gives 12 blocks, 8 of them flushes; every
  // channel of a prefill block, and so of BM_TurboDecodeFusedEntry's
  // cache, is clamp-free.
  const detail::FusedEntry* e = path_arg(state, detail::fused_entries());
  if (e == nullptr) return;
  const auto appended = static_cast<std::size_t>(state.range(2));
  const auto d = static_cast<std::size_t>(state.range(3));
  QuantizedKvCache cache =
      decode_cache(static_cast<std::size_t>(state.range(1)), d);
  const MatrixF k = random_matrix(appended, d, 16);
  const MatrixF v = random_matrix(appended, d, 17);
  for (std::size_t t = 0; t < appended; ++t) {
    cache.append_token(k.row(t), v.row(t));
  }
  run_decode_entry(state, *e, cache);
}
BENCHMARK(BM_TurboDecodeFusedEntryAppended)
    ->ArgsProduct({{0, 1, 2, 3}, {256}, {512}, {128}})
    ->Apply(entry_rows);

void BM_KvCacheAppendToken(benchmark::State& state) {
  // One decode step's KV write: QuantizedKvCache::append_token of a
  // 128-wide K and V token into the decode buffers, and a flush (both
  // second-stage compressions) every 64 tokens. The cache starts over
  // every 4,096 tokens, so that it stays small; that costs a few frees,
  // spread over those tokens. Items are tokens.
  constexpr std::size_t kD = 128;
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kRestart = 4096;
  const MatrixF k = random_matrix(kRows, kD, 18);
  const MatrixF v = random_matrix(kRows, kD, 19);
  const auto fresh = [] {
    return QuantizedKvCache(kD, BitWidth::kInt4, 64, 64);
  };
  QuantizedKvCache cache = fresh();
  std::size_t t = 0;
  for (auto _ : state) {
    cache.append_token(k.row(t % kRows), v.row(t % kRows));
    if (++t % kRestart == 0) cache = fresh();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvCacheAppendToken);

void BM_GroupedQuantChannelwise(benchmark::State& state) {
  const MatrixF m = random_matrix(512, 64, 15);
  for (auto _ : state) {
    GroupQuantized g =
        quantize_grouped(m, BitWidth::kInt4, 64, QuantAxis::kChannel);
    benchmark::DoNotOptimize(g.packed.data());
  }
  state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_GroupedQuantChannelwise);

// One admission-time walk of the prefix index: range(0) sessions, each a
// 1,024-token shared prefix plus 512 tokens of its own, indexed at the
// serving engine's 64-token pages; each iteration matches every
// session's prompt (24 pages) once. Items are matched pages.
void BM_RadixMatch(benchmark::State& state) {
  constexpr std::size_t kPageTokens = 64;
  constexpr std::size_t kShared = 1024;
  constexpr std::size_t kOwn = 512;
  const auto sessions = static_cast<std::size_t>(state.range(0));
  RadixIndex index(kPageTokens);
  std::vector<std::vector<std::int32_t>> prompts;
  PageId next_page = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    std::vector<std::int32_t> ids(kShared + kOwn);
    std::iota(ids.begin(), ids.begin() + kShared, 0);
    std::iota(ids.begin() + kShared, ids.end(),
              static_cast<std::int32_t>(kShared + s * kOwn));
    std::vector<PageId> pages(ids.size() / kPageTokens);
    std::iota(pages.begin(), pages.end(), next_page);
    next_page += static_cast<PageId>(pages.size());
    index.insert(ids, pages);
    prompts.push_back(std::move(ids));
  }
  std::size_t matched = 0;
  for (auto _ : state) {
    for (const auto& p : prompts) {
      const std::vector<PageId> m = index.match(p);
      matched += m.size();
      benchmark::DoNotOptimize(m.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(matched));
}
BENCHMARK(BM_RadixMatch)->Arg(16)->Arg(128)->Arg(1024);

}  // namespace
