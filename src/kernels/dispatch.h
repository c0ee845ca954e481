// Runtime dispatch of the fused TurboAttention kernels.
//
// kernels/fused_kernels.cpp compiles the decode body
// (kernels/fused_decode_body.h) and the prefill body
// (kernels/fused_prefill_body.h) for the baseline ISA and, on x86-64 with
// GCC, for AVX2 + F16C (without FMA, so no multiply-add contracts). Each
// build is one entry of the table below. The first call of either kernel
// picks the last entry this CPU supports, from CPUID; both kernels run
// that entry, and nothing else selects it.
//
// The table is the seam the parity tests and benches use to run every
// compiled entry, the baseline one included, on any host.
#pragma once

#include <span>
#include <vector>

#include "attention/config.h"
#include "attention/turbo.h"
#include "kvcache/decode_buffer.h"
#include "kvcache/quantized_kv_cache.h"
#include "softmax/sas.h"

namespace turbo::detail {

using FusedDecodeFn = std::vector<float> (*)(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas);

using FusedPrefillFn = TurboPrefillResult (*)(const MatrixF& q,
                                              const MatrixF& k,
                                              const MatrixF& v,
                                              const AttentionConfig& cfg,
                                              const Sas& sas,
                                              QuantizedKvCache* cache);

// One compiled build of the kernel bodies.
struct FusedEntry {
  const char* name;  // "baseline" or "avx2"
  FusedDecodeFn decode;
  FusedPrefillFn prefill;
  bool supported;  // this CPU can run it
};

// Every compiled entry, baseline first.
std::span<const FusedEntry> fused_entries();

// The entry the kernels run: the last supported one, picked once.
const FusedEntry& fused_entry();

}  // namespace turbo::detail
