#include "kernels/fused_decode.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/check.h"
#include "common/cpu.h"
#include "common/numeric.h"
#include "quant/packing.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"

namespace turbo {
namespace detail {

// The kernel body, once per instruction set (see fused_decode_body.h).
// Every header it needs is included above, before the target pragma.
namespace baseline_isa {
constexpr bool kSimd = false;
#include "kernels/fused_decode_body.h"
}  // namespace baseline_isa

// The AVX2 build rests on GCC's target pragma; other compilers build the
// baseline entry only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC target("avx2,f16c")
namespace avx2_isa {
constexpr bool kSimd = true;
#include "kernels/fused_decode_body.h"
}  // namespace avx2_isa
#pragma GCC pop_options
#endif

std::span<const FusedDecodeEntry> fused_decode_entries() {
  static const std::vector<FusedDecodeEntry> kEntries = {
      {"baseline", &baseline_isa::fused_decode, true},
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
      {"avx2", &avx2_isa::fused_decode, cpu_has_avx2_f16c()},
#endif
  };
  return kEntries;
}

}  // namespace detail

std::vector<float> fused_turbo_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas) {
  static const detail::FusedDecodeFn kKernel = [] {
    detail::FusedDecodeFn fn = nullptr;
    for (const detail::FusedDecodeEntry& e : detail::fused_decode_entries()) {
      if (e.supported) fn = e.fn;
    }
    return fn;
  }();
  return kKernel(q, blocks, key_buffer, value_buffer, cfg, sas);
}

std::vector<float> fused_turbo_decode(std::span<const float> q,
                                      const QuantizedKvCache& cache,
                                      const AttentionConfig& cfg,
                                      const Sas& sas) {
  TURBO_CHECK_MSG(cache.token_count() > 0, "decode against an empty cache");
  std::vector<const KvBlock*> blocks;
  blocks.reserve(cache.block_count());
  for (std::size_t j = 0; j < cache.block_count(); ++j) {
    blocks.push_back(&cache.block(j));
  }
  return fused_turbo_decode(q, blocks, cache.key_buffer(),
                            cache.value_buffer(), cfg, sas);
}

}  // namespace turbo
