#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/avx512.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/dispatch_table.h"
#include "common/numeric.h"
#include "kernels/dispatch.h"
#include "kernels/fused_decode.h"
#include "kernels/fused_prefill.h"
#include "quant/packing.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"

namespace turbo {
namespace detail {

// The kernel bodies, once per instruction set (see fused_decode_body.h).
// Every header they need is included above, before the target pragma.
// kSimd turns on the AVX2 helpers, kAvx512 the AVX-512 VNNI ones in front
// of them; the kAvx512 build, and its prefill's kAmx instance, live in
// fused_kernels_avx512.cpp.
namespace baseline_isa {
constexpr bool kSimd = false;
constexpr bool kAvx512 = false;
#include "kernels/fused_decode_body.h"
#include "kernels/fused_prefill_body.h"
}  // namespace baseline_isa

// The wider builds rest on GCC's target pragma; other compilers build the
// baseline entry only.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC target("avx2,f16c")
namespace avx2_isa {
constexpr bool kSimd = true;
constexpr bool kAvx512 = false;
#include "kernels/fused_decode_body.h"
#include "kernels/fused_prefill_body.h"
}  // namespace avx2_isa
#pragma GCC pop_options

// The AVX-512 VNNI build, compiled in fused_kernels_avx512.cpp, which
// instantiates its prefill without AMX and with.
namespace avx512vnni_isa {
std::vector<float> fused_decode(std::span<const float> q,
                                std::span<const KvBlock* const> blocks,
                                const DecodeBuffer& key_buffer,
                                const DecodeBuffer& value_buffer,
                                const AttentionConfig& cfg, const Sas& sas);
template <bool kAmx>
TurboPrefillResult fused_prefill(const MatrixF& q, const MatrixF& k,
                                 const MatrixF& v, const AttentionConfig& cfg,
                                 const Sas& sas, QuantizedKvCache* cache);
}  // namespace avx512vnni_isa
#endif

std::span<const FusedEntry> fused_entries() {
  static const std::array kEntries = {
      FusedEntry{"baseline", &baseline_isa::fused_decode,
                 &baseline_isa::fused_prefill<false>, true},
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
      FusedEntry{"avx2", &avx2_isa::fused_decode,
                 &avx2_isa::fused_prefill<false>, cpu_has_avx2_f16c()},
      FusedEntry{"avx512vnni", &avx512vnni_isa::fused_decode,
                 &avx512vnni_isa::fused_prefill<false>, cpu_has_avx512vnni()},
      FusedEntry{"amx", &avx512vnni_isa::fused_decode,
                 &avx512vnni_isa::fused_prefill<true>, cpu_has_amx_int8()},
#endif
  };
  return kEntries;
}

const FusedEntry& fused_entry() {
  static const FusedEntry& kPicked = last_supported(fused_entries());
  return kPicked;
}

}  // namespace detail

std::vector<float> fused_turbo_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas) {
  return detail::fused_entry().decode(q, blocks, key_buffer, value_buffer,
                                      cfg, sas);
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

TurboPrefillResult fused_turbo_prefill(const MatrixF& q, const MatrixF& k,
                                       const MatrixF& v,
                                       const AttentionConfig& cfg,
                                       const Sas& sas,
                                       QuantizedKvCache* cache) {
  return detail::fused_entry().prefill(q, k, v, cfg, sas, cache);
}

}  // namespace turbo
