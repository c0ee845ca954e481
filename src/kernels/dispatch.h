// Runtime dispatch of the fused TurboAttention kernels.
//
// The decode body (kernels/fused_decode_body.h) and the prefill body
// (kernels/fused_prefill_body.h) are compiled three times, each build one
// entry of the table below: "baseline" for the baseline ISA, and on
// x86-64 with GCC "avx2" for AVX2 + F16C (kernels/fused_kernels.cpp) and
// "avx512vnni" for AVX2 + F16C + AVX-512 F/BW/VL/VNNI
// (kernels/fused_kernels_avx512.cpp). A fourth entry, "amx", runs the
// avx512vnni decode and a second instance of the AVX-512 prefill body,
// fused_prefill<true>, whose (Q tile, KV tile) step is key-major: K Q^T
// and O^T = V^T P~^T are AMX-INT8 tile products, each query row is one
// vector lane, and the online softmax between them runs as vertical
// vector ops. It is supported where the CPU has AMX-TILE and AMX-INT8 and
// Linux grants the process the tile state (cpu_has_amx_int8). Sas::apply,
// which every entry calls, has a dispatch table of its own
// (softmax/sas_paths.h). Both files build with
// -ffp-contract=off, so no multiply-add contracts into an FMA. The first
// call of either kernel picks the last entry this CPU supports, from
// CPUID (common/cpu.h); both kernels run that entry, and nothing else
// selects it. Every entry is bit-identical to the scalar oracles.
//
// The table is the seam the parity tests and benches use to run every
// compiled entry the host supports, the narrower ones included.
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
  const char* name;  // "baseline", "avx2", "avx512vnni" or "amx"
  FusedDecodeFn decode;
  FusedPrefillFn prefill;
  bool supported;  // this CPU can run it
};

// Every compiled entry, baseline first.
std::span<const FusedEntry> fused_entries();

// The entry the kernels run: the last supported one, picked once.
const FusedEntry& fused_entry();

}  // namespace turbo::detail
