// Kernel workloads (prefill_1k, decode_512): one sequence at a time
// (closed loop) through every head and layer of a LLaMA-3-shaped model,
// calling each method only through KvAttention::prefill/decode.
//
// The end-to-end run times TurboAttention alone; the traced run adds the
// FP16 and KIVI baselines and replays the public quant / softmax / kvcache
// / kernels functions the Turbo kernels call, on this workload's tensors.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

#include "attention/reference.h"
#include "attention/turbo.h"
#include "attention/turbo_method.h"
#include "baselines/fp16_method.h"
#include "baselines/kivi.h"
#include "bench_e2e.h"
#include "kernels/fused_decode.h"
#include "kvcache/quantized_kv_cache.h"
#include "model/generator.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"
#include "softmax/sas.h"

namespace e2e {

namespace {

using turbo::AttentionConfig;
using turbo::KvAttention;
using turbo::MatrixF;

// LLaMA-3 outlier profile at its real head_dim, 8 heads (MHA cache) per
// layer; each workload runs Shape::heads of them in each of Shape::layers
// layers, one instance of the method per head-layer.
constexpr std::size_t kProfileHeads = 8;
constexpr std::size_t kHeadDim = 128;
constexpr std::size_t kTile = 64;  // Bc = n_b = KIVI group = 64
// Every kErrorStride-th prompt row is checked against the exact reference
// (every decode output is).
constexpr std::size_t kErrorStride = 8;
constexpr int kSetupRepeats = 11;
constexpr std::size_t kDecodeReplayRounds = 5;

struct Shape {
  std::size_t heads = 0;
  std::size_t layers = 0;
  std::size_t prompt = 0;
  std::size_t decode = 0;
  bool timed_decode = false;  // throughput counts decode, else prefill, time
  // Limits on Turbo's error on the calibration inputs, pooled over every
  // checked prefill row and over the whole decode phase: 1.1x what this
  // code measured there.
  double cal_max_prefill_err = 0.0;
  double cal_max_decode_err = 0.0;
};

// Every run also checks Turbo on one fixed input, this seed's. The error
// on seeded inputs has a long tail from seed to seed (decode_512's decode
// phase ranges over 0.19-0.38), so only loose limits hold there;
// on one fixed input the error is a single number, and a change that
// buys speed with 10% more error fails the run.
constexpr std::uint64_t kCalibrationSeed = 42;

enum class Method { kTurbo, kFp16, kKivi };

struct MethodInfo {
  Method method;
  const char* name;
  // Span names: "<layer>.<method>_<call>"; the layer is the src module.
  const char* sequence_span;
  const char* prefill_span;
  const char* step_span;
  const char* decode_span;
  // Failure thresholds on the error against the exact FP32 reference of
  // one prefill call, of one decode step, and of a sequence's whole decode
  // phase. They catch gross breakage only, such as a flipped sign: the
  // worst seen over seeds 0-59 of decode_512 is up to ~0.6x of each (Turbo
  // 1.56 of 2.6 per step and 0.46 of 0.92 per phase, KIVI 0.67 of 1.2 per
  // step). A single head's output can sit close to zero (its weights spread
  // over values that cancel), so one step's error has a long tail; the
  // pooled phase error does not, and catches an output that is wrong
  // everywhere.
  double max_prefill_err;
  double max_step_err;
  double max_decode_err;
};

constexpr MethodInfo kTurbo{Method::kTurbo,
                            "turbo",
                            "attention.turbo",
                            "attention.turbo_prefill",
                            "attention.turbo_step",
                            "attention.turbo_decode",
                            0.25,
                            2.6,
                            0.92};
constexpr MethodInfo kFp16{Method::kFp16,
                           "fp16",
                           "baselines.fp16",
                           "baselines.fp16_prefill",
                           "baselines.fp16_step",
                           "baselines.fp16_decode",
                           0.0034,
                           0.011,
                           0.0022};
constexpr MethodInfo kKivi{Method::kKivi,
                           "kivi",
                           "baselines.kivi",
                           "baselines.kivi_prefill",
                           "baselines.kivi_step",
                           "baselines.kivi_decode",
                           0.0034,
                           1.2,
                           0.46};

turbo::KvAttentionFactory factory(Method m) {
  switch (m) {
    case Method::kTurbo:
      return turbo::make_turbo_factory(turbo::TurboMethodConfig{});
    case Method::kFp16:
      return turbo::make_fp16_factory(AttentionConfig{});
    case Method::kKivi:
      return turbo::make_kivi_factory(turbo::KiviConfig{});
  }
  throw std::logic_error("unknown method");
}

// One head-layer's tensors: prompt rows then decode rows, plus copies of
// the prompt slices prefill() takes (made once, outside every timing).
struct HeadLayer {
  turbo::model::HeadTensors all;
  MatrixF q;
  MatrixF k;
  MatrixF v;
};

void rescale_channels(MatrixF& m, const std::vector<float>& from,
                      const std::vector<float>& to) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = m(r, c) / from[c] * to[c];
    }
  }
}

// The model is the same in every run: each layer's per-channel magnitudes,
// the outlier structure its weights impose, come from kModelSeed. --seed
// draws the token activations (QkvGenerator at the run's seed), which are
// then moved from the run's channel magnitudes onto the model's. How sparse
// attention is, and so how long prefill takes, depends mostly on those
// magnitudes: drawn per seed, they swing prefill time by ~7% (quartile
// spread over ten seeds), fixed by ~2%.
constexpr std::uint64_t kModelSeed = 2024;

std::vector<HeadLayer> make_inputs(Shape s, std::uint64_t seed) {
  turbo::model::ModelProfile profile = turbo::model::llama3_8b_profile();
  profile.head_dim = kHeadDim;
  profile.heads = kProfileHeads;
  std::vector<HeadLayer> in;
  in.reserve(s.heads * s.layers);
  for (std::size_t layer = 0; layer < s.layers; ++layer) {
    const turbo::model::QkvGenerator gen(profile, seed * s.layers + layer);
    const turbo::model::QkvGenerator model(profile, kModelSeed + layer);
    for (std::size_t h = 0; h < s.heads; ++h) {
      HeadLayer hl{gen.generate_head(h, s.prompt + s.decode), {}, {}, {}};
      const std::vector<float> qk = model.qk_scales(h);
      rescale_channels(hl.all.q, gen.qk_scales(h), qk);
      rescale_channels(hl.all.k, gen.qk_scales(h), qk);
      rescale_channels(hl.all.v, gen.v_scales(h), model.v_scales(h));
      hl.q = hl.all.q.block_rows(0, s.prompt);
      hl.k = hl.all.k.block_rows(0, s.prompt);
      hl.v = hl.all.v.block_rows(0, s.prompt);
      in.push_back(std::move(hl));
    }
  }
  return in;
}

std::vector<std::size_t> checked_rows(Shape s) {
  std::vector<std::size_t> rows;
  for (std::size_t r = kErrorStride - 1; r < s.prompt; r += kErrorStride) {
    rows.push_back(r);
  }
  return rows;
}

// Exact FP32 outputs (reference_decode, the kernel behind ExactAttention)
// for the checked prompt rows and every decode step of each head-layer.
struct Reference {
  std::vector<std::vector<std::vector<float>>> prefill;  // [hl][row]
  std::vector<std::vector<std::vector<float>>> decode;   // [hl][step]
};

Reference exact_reference(const std::vector<HeadLayer>& in, Shape s) {
  const AttentionConfig cfg;
  const std::vector<std::size_t> rows = checked_rows(s);
  Reference ref;
  for (const HeadLayer& hl : in) {
    MatrixF k;
    MatrixF v;
    std::vector<std::vector<float>> pre;
    std::size_t next = 0;
    for (std::size_t r = 0; r < s.prompt; ++r) {
      k.append_row(hl.all.k.row(r));
      v.append_row(hl.all.v.row(r));
      if (next < rows.size() && rows[next] == r) {
        pre.push_back(turbo::reference_decode(hl.all.q.row(r), k, v, cfg));
        ++next;
      }
    }
    std::vector<std::vector<float>> dec;
    for (std::size_t t = 0; t < s.decode; ++t) {
      k.append_row(hl.all.k.row(s.prompt + t));
      v.append_row(hl.all.v.row(s.prompt + t));
      dec.push_back(
          turbo::reference_decode(hl.all.q.row(s.prompt + t), k, v, cfg));
    }
    ref.prefill.push_back(std::move(pre));
    ref.decode.push_back(std::move(dec));
  }
  return ref;
}

// Relative Frobenius error ||o - o*|| / ||o*|| pooled over the rows added.
struct ErrorSum {
  double num = 0.0;
  double den = 0.0;

  void add(std::span<const float> out, const std::vector<float>& exact) {
    for (std::size_t i = 0; i < exact.size(); ++i) {
      const double d = static_cast<double>(out[i]) - exact[i];
      num += d * d;
      den += static_cast<double>(exact[i]) * exact[i];
    }
  }
  double value() const { return std::sqrt(num / den); }
};

bool all_finite(std::span<const float> xs) {
  return std::all_of(xs.begin(), xs.end(),
                     [](float x) { return std::isfinite(x); });
}

std::uint64_t digest_of(std::span<const float> xs) {
  Digest d;
  d.bytes(xs.data(), xs.size_bytes());
  return d.get();
}

// One sequence of one method through all head-layers: prefill each
// head-layer, then decode step-major (every head-layer for step t before
// step t+1), the order a model's decode loop runs in.
struct Sequence {
  std::vector<std::unique_ptr<KvAttention>> heads;  // final state
  std::vector<double> prefill_s;  // per prefill call
  std::vector<double> step_s;     // per decode step, over all head-layers
  double wall_s = 0.0;            // whole sequence, checks included
  std::vector<std::uint64_t> digests;  // one per call, in call order
  std::size_t calls = 0;
  std::vector<char> bad;  // per call: failed a check
  std::vector<std::string> failures;
  // With a reference: the error of each prefill call and decode step, and
  // the error pooled over every prefill call and over the decode phase.
  std::vector<double> prefill_errors;
  std::vector<double> decode_errors;
  double prefill_err = 0.0;
  double decode_err = 0.0;
};

Sequence run_sequence(const MethodInfo& mi, const std::vector<HeadLayer>& in,
                      Shape s, const Reference* ref, Tracer& tracer,
                      std::uint64_t seq, Timings* timings = nullptr) {
  const Clock::time_point wall0 = Clock::now();
  const auto make = factory(mi.method);
  const std::vector<std::size_t> rows = checked_rows(s);
  const std::size_t n = in.size();
  Sequence out;
  out.digests.reserve(n * (1 + s.decode));
  std::vector<char>& bad = out.bad;
  bad.assign(n * (1 + s.decode), 0);
  auto note = [&out, &mi](const std::string& why) {
    if (out.failures.size() < 4) {
      out.failures.push_back(std::string(mi.name) + ": " + why);
    }
  };
  const auto over = [](double err, double max) {
    return !(err <= max);  // NaN fails too
  };

  const auto seq_span = tracer.span(mi.sequence_span, seq);
  ErrorSum prompt;
  for (std::size_t i = 0; i < n; ++i) {
    out.heads.push_back(make(kHeadDim));
    MatrixF o;
    const Clock::time_point t0 = Clock::now();
    {
      const auto sp = tracer.span(mi.prefill_span, seq, s.prompt);
      o = out.heads[i]->prefill(in[i].q, in[i].k, in[i].v);
    }
    out.prefill_s.push_back(seconds_since(t0));
    if (timings != nullptr && !s.timed_decode) {
      timings->add(out.prefill_s.back());
    }
    ++out.calls;
    out.digests.push_back(digest_of(o.flat()));
    if (!all_finite(o.flat())) {
      bad[i] = 1;
      note("non-finite prefill output");
    }
    if (ref != nullptr) {
      ErrorSum e;
      for (std::size_t j = 0; j < rows.size(); ++j) {
        e.add(o.row(rows[j]), ref->prefill[i][j]);
      }
      out.prefill_errors.push_back(e.value());
      prompt.num += e.num;
      prompt.den += e.den;
      if (over(e.value(), mi.max_prefill_err)) {
        bad[i] = 1;
        note("prefill error " + std::to_string(e.value()));
      }
    }
  }

  ErrorSum phase;
  for (std::size_t t = 0; t < s.decode; ++t) {
    const std::size_t row = s.prompt + t;
    const std::size_t first = n * (1 + t);
    const auto step_span = tracer.span(mi.step_span, seq, n);
    double step_s = 0.0;
    ErrorSum e;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<float> o;
      const Clock::time_point t0 = Clock::now();
      {
        const auto sp = tracer.span(mi.decode_span, seq);
        o = out.heads[i]->decode(in[i].all.q.row(row), in[i].all.k.row(row),
                                 in[i].all.v.row(row));
      }
      step_s += seconds_since(t0);
      ++out.calls;
      out.digests.push_back(digest_of(o));
      if (!all_finite(o)) {
        bad[first + i] = 1;
        note("non-finite decode output");
      }
      if (ref != nullptr) e.add(o, ref->decode[i][t]);
    }
    out.step_s.push_back(step_s);
    if (timings != nullptr && s.timed_decode) timings->add(step_s);
    if (ref != nullptr) {
      out.decode_errors.push_back(e.value());
      phase.num += e.num;
      phase.den += e.den;
      if (over(e.value(), mi.max_step_err)) {
        std::fill_n(bad.begin() + static_cast<std::ptrdiff_t>(first), n, 1);
        note("decode step error " + std::to_string(e.value()));
      }
    }
  }
  if (ref != nullptr) {
    out.prefill_err = prompt.value();
    out.decode_err = phase.value();
  }
  if (ref != nullptr && s.decode > 0 &&
      over(phase.value(), mi.max_decode_err)) {
    std::fill(bad.begin() + static_cast<std::ptrdiff_t>(n), bad.end(), 1);
    note("decode phase error " + std::to_string(phase.value()));
  }
  out.wall_s = seconds_since(wall0);
  return out;
}

// Count a sequence's calls into the run. A call fails when it failed a
// check, or when its output differs by a byte from the same call in the
// warm-up repetition (`warm`, when given).
void absorb(RunResult& r, const Sequence& s, const Sequence* warm) {
  std::size_t failed = 0;
  std::size_t differ = 0;
  for (std::size_t i = 0; i < s.calls; ++i) {
    const bool diff = warm != nullptr && s.digests[i] != warm->digests[i];
    differ += diff ? 1 : 0;
    failed += s.bad[i] != 0 || diff ? 1 : 0;
  }
  r.attempted += s.calls;
  r.failed += failed;
  for (const std::string& f : s.failures) {
    if (r.failures.size() < 8) r.failures.push_back(f);
  }
  if (differ > 0 && r.failures.size() < 8) {
    r.failures.push_back(std::to_string(differ) +
                         " call outputs differ from the warm-up repetition");
  }
}

// Over a calibration limit, every call of that phase fails.
void check_calibration(Sequence& cal, Shape s) {
  const auto n = static_cast<std::ptrdiff_t>(cal.heads.size());
  if (!(cal.prefill_err <= s.cal_max_prefill_err)) {
    std::fill_n(cal.bad.begin(), n, 1);
    cal.failures.push_back("turbo: calibration prefill error " +
                           std::to_string(cal.prefill_err));
  }
  if (!(cal.decode_err <= s.cal_max_decode_err)) {
    std::fill(cal.bad.begin() + n, cal.bad.end(), 1);
    cal.failures.push_back("turbo: calibration decode error " +
                           std::to_string(cal.decode_err));
  }
}

double mean_bytes_per_token(const Sequence& s) {
  double total = 0.0;
  for (const auto& h : s.heads) {
    total += static_cast<double>(h->kv_cache_bytes()) /
             static_cast<double>(h->token_count());
  }
  return total / static_cast<double>(s.heads.size());
}

const turbo::QuantizedKvCache& turbo_cache(const Sequence& s,
                                           std::size_t i) {
  return dynamic_cast<const turbo::TurboKvAttention&>(*s.heads[i]).cache();
}

// Scores q.k * scale, shifted by their row max: the values the kernels
// exponentiate. Rows: the checked prompt rows and every 8th decode step.
std::vector<float> shifted_scores(const std::vector<HeadLayer>& in, Shape s) {
  const float scale = AttentionConfig{}.effective_scale(kHeadDim);
  std::vector<std::size_t> rows = checked_rows(s);
  for (std::size_t t = 7; t < s.decode; t += 8) rows.push_back(s.prompt + t);
  std::vector<float> xs;
  std::vector<float> row_scores;
  for (const HeadLayer& hl : in) {
    for (const std::size_t r : rows) {
      row_scores.clear();
      const auto q = hl.all.q.row(r);
      for (std::size_t c = 0; c <= r; ++c) {
        const auto k = hl.all.k.row(c);
        float acc = 0.0f;
        for (std::size_t x = 0; x < kHeadDim; ++x) acc += q[x] * k[x];
        row_scores.push_back(acc * scale);
      }
      const float m = *std::max_element(row_scores.begin(), row_scores.end());
      for (const float v : row_scores) xs.push_back(v - m);
    }
  }
  return xs;
}

// Exponentials one causal turbo_attention_prefill call evaluates: one per
// visible (query, key) pair plus one rescale per row per later KV tile.
double prefill_exp_count(std::size_t prompt) {
  double n = 0.0;
  for (std::size_t r = 0; r < prompt; ++r) {
    n += static_cast<double>(r + 1 + r / kTile);
  }
  return n;
}

// Median replayed cost of the stages one prefill call runs.
struct StageCosts {
  double stage1_tile_us = 0.0;
  double stage2_tile_us = 0.0;
  double sas_exp_ns = 0.0;
};

// Replays of the stages inside the Turbo kernels, timed one public call at
// a time on this workload's tensors and on the caches the traced Turbo
// sequence left behind. Adds their per-layer metrics; a fused decode that
// differs from the reference decode is a failed operation.
StageCosts replay_stages(const std::vector<HeadLayer>& in, Shape s,
                         const Sequence& turbo_seq, Tracer& tracer,
                         RunResult& r) {
  const auto root = tracer.span("bench.replays");
  const std::size_t n = in.size();
  const AttentionConfig cfg;
  const turbo::Sas sas{turbo::SasConfig{}};
  volatile float sink = 0.0f;

  // Stage 1 (per-tile symmetric INT8) and stage 2 (channel-wise INT4 with
  // integer scales) on every prompt K/V tile.
  for (const HeadLayer& hl : in) {
    for (std::size_t kb = 0; kb + kTile <= s.prompt; kb += kTile) {
      for (const MatrixF* m : {&hl.k, &hl.v}) {
        const MatrixF tile = m->block_rows(kb, kTile);
        turbo::Int8Tile t;
        {
          const auto sp = tracer.span("quant.stage1_tile");
          t = turbo::quantize_tile_int8(tile);
        }
        turbo::ProgressiveBlock b;
        {
          const auto sp = tracer.span("quant.stage2_compress");
          b = turbo::progressive_compress(t.q, t.scale,
                                          turbo::BitWidth::kInt4);
        }
        sink = sink + static_cast<float>(b.packed.size());
      }
    }
  }

  // Stage-2 reversal on the blocks decode reads.
  for (std::size_t i = 0; i < n; ++i) {
    const turbo::QuantizedKvCache& cache = turbo_cache(turbo_seq, i);
    for (std::size_t j = 0; j < cache.block_count(); ++j) {
      for (const turbo::ProgressiveBlock* b :
           {&cache.block(j).k, &cache.block(j).v}) {
        turbo::MatrixI8 q1;
        {
          const auto sp = tracer.span("quant.stage2_decompress");
          q1 = turbo::progressive_decompress_int8(*b);
        }
        sink = sink + static_cast<float>(q1(0, 0));
      }
    }
  }

  // Decode-query quantization, too short for a span per call: one span
  // per head-layer covering all its decode queries.
  std::vector<std::int8_t> q8(kHeadDim);
  for (const HeadLayer& hl : in) {
    const auto sp = tracer.span("quant.query_quant", 0, s.decode);
    for (std::size_t t = 0; t < s.decode; ++t) {
      const auto q = hl.all.q.row(s.prompt + t);
      const float scale = turbo::symmetric_scale_int8(q);
      turbo::quantize_symmetric_int8(q, scale, q8);
      sink = sink + static_cast<float>(q8[0]);
    }
  }

  // Exponentials: SAS against libm on the same shifted scores.
  const std::vector<float> xs = shifted_scores(in, s);
  std::size_t zeros = 0;
  {
    const auto sp = tracer.span("softmax.sas_exp", 0, xs.size());
    float acc = 0.0f;
    for (const float x : xs) {
      const float e = sas.exp_neg(x);
      acc += e;
      zeros += e == 0.0f ? 1 : 0;
    }
    sink = sink + acc;
  }
  {
    const auto sp = tracer.span("softmax.libm_exp", 0, xs.size());
    float acc = 0.0f;
    for (const float x : xs) acc += std::exp(x);
    sink = sink + acc;
  }

  // KV write path: a cache primed the way prefill primes it, then every
  // decode token appended (the buffer flushes every n_b tokens).
  for (const HeadLayer& hl : in) {
    turbo::QuantizedKvCache cache(kHeadDim, turbo::BitWidth::kInt4, kTile,
                                  kTile);
    for (std::size_t kb = 0; kb + kTile <= s.prompt; kb += kTile) {
      cache.append_prefill_block(
          turbo::quantize_tile_int8(hl.k.block_rows(kb, kTile)),
          turbo::quantize_tile_int8(hl.v.block_rows(kb, kTile)));
    }
    for (std::size_t t = 0; t < s.decode; ++t) {
      const std::size_t row = s.prompt + t;
      const auto sp = tracer.span("kvcache.append_token");
      cache.append_token(hl.all.k.row(row), hl.all.v.row(row));
    }
  }

  // Reference and fused decode, alternating, on each final Turbo cache with
  // the last decode query; the fused kernel must match bit for bit.
  for (std::size_t round = 0; round < kDecodeReplayRounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      const turbo::QuantizedKvCache& cache = turbo_cache(turbo_seq, i);
      const auto q = in[i].all.q.row(s.prompt + s.decode - 1);
      std::vector<float> ref_out;
      std::vector<float> fused_out;
      {
        const auto sp = tracer.span("attention.turbo_ref_decode");
        ref_out = turbo::turbo_attention_decode(q, cache, cfg, sas);
      }
      {
        const auto sp = tracer.span("kernels.fused_decode");
        fused_out = turbo::fused_turbo_decode(q, cache, cfg, sas);
      }
      ++r.attempted;
      if (ref_out.size() != fused_out.size() ||
          std::memcmp(ref_out.data(), fused_out.data(),
                      ref_out.size() * sizeof(float)) != 0) {
        r.fail(1, "fused decode differs from the reference decode on "
                  "head-layer " + std::to_string(i));
      }
    }
  }
  (void)sink;

  const auto us_p50 = [&tracer](const char* name) {
    return median(tracer.durations_us(name));
  };
  const auto ns_per_item = [&tracer](const char* name) {
    return sum(tracer.durations_us(name)) * 1000.0 /
           static_cast<double>(tracer.total_count(name));
  };
  const StageCosts costs{us_p50("quant.stage1_tile"),
                         us_p50("quant.stage2_compress"),
                         ns_per_item("softmax.sas_exp")};
  const std::size_t tiles = tracer.durations_us("quant.stage1_tile").size();
  r.add("quant.stage1_tile_us", costs.stage1_tile_us, "us", tiles);
  r.add("quant.stage2_compress_us", costs.stage2_tile_us, "us", tiles);
  r.add("quant.stage2_decompress_us", us_p50("quant.stage2_decompress"), "us",
        tracer.durations_us("quant.stage2_decompress").size());
  r.add("quant.query_quant_ns", ns_per_item("quant.query_quant"), "ns",
        n * s.decode);
  r.add("softmax.sas_exp_ns", costs.sas_exp_ns, "ns", xs.size());
  r.add("softmax.libm_exp_ns", ns_per_item("softmax.libm_exp"), "ns",
        xs.size());
  r.add("softmax.sas_zero_frac",
        static_cast<double>(zeros) / static_cast<double>(xs.size()), "frac",
        xs.size());
  const std::vector<double> appends =
      tracer.durations_us("kvcache.append_token");
  r.add("kvcache.append_token_us_p50", percentile(appends, 50), "us",
        appends.size());
  r.add("kvcache.append_token_us_p99", percentile(appends, 99), "us",
        appends.size());
  r.add("attention.turbo_ref_decode_us", us_p50("attention.turbo_ref_decode"),
        "us", n * kDecodeReplayRounds);
  r.add("kernels.fused_decode_us", us_p50("kernels.fused_decode"), "us",
        n * kDecodeReplayRounds);
  return costs;
}

RunResult run(const RunOptions& opt, Shape s, Tracer& tracer) {
  RunResult r;
  std::vector<double> setups;
  std::vector<HeadLayer> in;
  // Set-up: the inputs, and one instance of the method per head-layer (each
  // repetition builds its own, outside its timings).
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(s, opt.seed);
    const auto make = factory(Method::kTurbo);
    for (std::size_t h = 0; h < s.heads * s.layers; ++h) make(kHeadDim);
    setups.push_back(seconds_since(t0));
  }
  const std::size_t n = in.size();
  const Reference ref = exact_reference(in, s);

  // Warm-up repetition: untimed, checked against the exact reference, and
  // the byte-identity baseline for every later repetition. At the
  // calibration seed it is also the calibration sequence.
  Tracer off(false);
  Sequence warm = run_sequence(kTurbo, in, s, &ref, off, 0);
  if (opt.seed == kCalibrationSeed) {
    check_calibration(warm, s);
  } else {
    const std::vector<HeadLayer> cal_in = make_inputs(s, kCalibrationSeed);
    const Reference cal_ref = exact_reference(cal_in, s);
    Sequence cal = run_sequence(kTurbo, cal_in, s, &cal_ref, off, 0);
    check_calibration(cal, s);
    absorb(r, cal, nullptr);
  }
  absorb(r, warm, nullptr);

  const double tokens = static_cast<double>(s.timed_decode ? s.decode
                                                           : s.prompt);
  if (!opt.trace) {
    Timings t;
    const Clock::time_point loop0 = Clock::now();
    while (another_rep_fits(loop0, t.reps(), opt.seconds)) {
      t.start_rep();
      absorb(r, run_sequence(kTurbo, in, s, nullptr, off, 0, &t), &warm);
    }
    r.reps = t.reps();
    r.add("throughput_norm_per_s", normalized_throughput(tokens, t), "1/s",
          t.reps());
    r.add("setup_s", median(setups), "s", setups.size());
    r.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    return r;
  }

  // Traced run: one untraced Turbo repetition for the overhead baseline,
  // then every method once under spans, then the stage replays.
  const Sequence untraced = run_sequence(kTurbo, in, s, nullptr, off, 0);
  absorb(r, untraced, &warm);

  const auto root = tracer.span("bench.workload", opt.seed);
  Sequence turbo_seq;
  std::vector<Sequence> baselines;
  {
    // Turbo runs unchecked here, like the untraced repetition it is
    // compared with; its outputs are byte-identical to the checked warm-up.
    // Each method's sequence carries its own span id: 1, 2, 3.
    const auto rep = tracer.span("bench.rep");
    turbo_seq = run_sequence(kTurbo, in, s, nullptr, tracer, 1);
    absorb(r, turbo_seq, &warm);
    for (const MethodInfo* mi : {&kFp16, &kKivi}) {
      baselines.push_back(
          run_sequence(*mi, in, s, &ref, tracer, 2 + baselines.size()));
      absorb(r, baselines.back(), nullptr);
    }
  }
  r.reps = 1;
  const StageCosts costs = replay_stages(in, s, turbo_seq, tracer, r);

  const auto dur = [&tracer](const char* name) {
    return tracer.durations_us(name);
  };
  const auto tok_s = [&tracer](const char* name, std::size_t tokens) {
    return static_cast<double>(tokens) * 1e6 / sum(tracer.durations_us(name));
  };
  const double prefill_ms = median(dur("attention.turbo_prefill")) / 1000.0;
  r.add("attention.turbo_prefill_ms_p50", prefill_ms, "ms", n);
  r.add("attention.turbo_prefill_tok_s",
        tok_s("attention.turbo_prefill", s.prompt), "1/s", n);
  const std::vector<double> dec = dur("attention.turbo_decode");
  r.add("attention.turbo_decode_us_p50", percentile(dec, 50), "us", dec.size());
  r.add("attention.turbo_decode_us_p99", percentile(dec, 99), "us", dec.size());
  const std::vector<double> steps = dur("attention.turbo_step");
  r.add("attention.turbo_tpot_ms_p50", percentile(steps, 50) / 1000.0, "ms",
        steps.size());
  r.add("attention.turbo_tpot_ms_p99", percentile(steps, 99) / 1000.0, "ms",
        steps.size());
  r.add("attention.turbo_decode_tok_s", tok_s("attention.turbo_step", s.decode),
        "1/s", steps.size());
  r.add("attention.turbo_prefill_rel_err", warm.prefill_err, "ratio",
        warm.prefill_errors.size());
  r.add("attention.turbo_decode_rel_err", warm.decode_err, "ratio",
        warm.decode_errors.size());

  // Replayed stage time inside one prefill call: stage 1 on every Q/K/V
  // tile, stage 2 on every K/V tile, SAS on every exponential. The rest is
  // the inline QK^T, P~ quantize and P~V loops, which cannot be timed
  // from outside: an estimate.
  const double tiles = static_cast<double>(s.prompt / kTile);
  const double replayed_ms =
      tiles * (3.0 * costs.stage1_tile_us + 2.0 * costs.stage2_tile_us) /
          1000.0 +
      prefill_exp_count(s.prompt) * costs.sas_exp_ns / 1e6;
  r.add("attention.turbo_prefill_unattributed_ms", prefill_ms - replayed_ms,
        "ms", n);

  // Computed from tensor sizes, not measured traffic: per cached token the
  // reference decode reads the compressed K and V once and writes, then
  // re-reads, their INT8 expansion; it spends d MACs on q.k and d on p.v.
  r.add("kernels.decode_bytes_per_token",
        mean_bytes_per_token(turbo_seq) + 4.0 * kHeadDim, "bytes", n);
  r.add("kernels.decode_int8_macs_per_token", 2.0 * kHeadDim, "count", 1);

  r.add("kvcache.turbo_bytes_per_token", mean_bytes_per_token(turbo_seq),
        "bytes", n);
  r.add("kvcache.fp16_bytes_per_token", mean_bytes_per_token(baselines[0]),
        "bytes", n);
  r.add("kvcache.kivi_bytes_per_token", mean_bytes_per_token(baselines[1]),
        "bytes", n);
  r.add("kvcache.turbo_blocks",
        static_cast<double>(turbo_cache(turbo_seq, 0).block_count()), "count",
        1);

  for (const MethodInfo* mi : {&kFp16, &kKivi}) {
    const std::string prefix = std::string("baselines.") + mi->name;
    const std::vector<double> calls = dur(mi->decode_span);
    r.add(prefix + "_prefill_ms_p50", median(dur(mi->prefill_span)) / 1000.0, "ms",
          n);
    r.add(prefix + "_prefill_tok_s", tok_s(mi->prefill_span, s.prompt), "1/s",
          n);
    r.add(prefix + "_decode_us_p50", percentile(calls, 50), "us", calls.size());
    r.add(prefix + "_decode_us_p99", percentile(calls, 99), "us", calls.size());
    r.add(prefix + "_decode_tok_s", tok_s(mi->step_span, s.decode), "1/s",
          calls.size() / n);
  }

  r.add("bench.throughput_per_s",
        tokens / sum(s.timed_decode ? untraced.step_s : untraced.prefill_s),
        "1/s", 1);
  r.add("bench.trace_overhead_frac",
        (turbo_seq.wall_s - untraced.wall_s) / untraced.wall_s, "frac", 1);
  return r;
}

}  // namespace

RunResult run_kernel_workload(const RunOptions& opt, Tracer& tracer) {
  // Calibration errors measured: prefill_1k 0.0462 / 0.144, decode_512
  // 0.0375 / 0.153 (prefill / decode). decode_512 runs 4 head-layers, not
  // 16, so that a 20 s run holds ~10 repetitions of its 512 steps: the
  // sum of per-position minima needs several samples of every step.
  const Shape s = opt.workload == "prefill_1k"
                      ? Shape{8, 2, 1024, 16, false, 0.0508, 0.159}
                      : Shape{4, 1, 256, 512, true, 0.0412, 0.169};
  return run(opt, s, tracer);
}

}  // namespace e2e
