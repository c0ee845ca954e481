// Fused TurboAttention decode kernel.
//
// The reference decode path (attention/turbo_decode.cpp) materializes each
// block's INT8 K/V through progressive_decompress_int8 before the integer
// matmuls — clear, but slow. This kernel is what TurboKvAttention runs:
// per block it
//
//   * computes q.K as exact int32 dot products with K's integer second
//     stage (q2 * s_int + z_int, Algorithm 2) folded in: where a channel's
//     table clamp(q2 * s_int + z_int, -127, 127) is linear, q.k is
//     sum_c (q_c * s_int) * q2 + sum_c q_c * z_int, so the raw INT4/2 codes
//     go straight into the products against per-block weights (split into
//     two int8 halves, 128 h + l, for vpdpbusd), plus one constant;
//   * computes P~ and the rescale factor with one batch SAS call
//     (Sas::apply);
//   * runs P~V as an integer matmul: each channel sums p_q * v exactly in
//     int32 over the block, then adds float(sum) * o_scale once. V's
//     second stage folds into that sum the same way: s_int * sum(p_q *
//     q2) + z_int * sum(p_q).
//
// The few K and V channels whose table clamps a code (one vector compare
// finds them) go through a 16-entry table, per channel.
//
// Its output is bit-identical to the reference (same arithmetic; integer
// sums in any order); fused_decode_test pins that for every compiled entry.
//
// Dispatch (kernels/dispatch.h): the kernel body
// (kernels/fused_decode_body.h) is compiled for the baseline ISA and, on
// x86-64, for AVX2 + F16C and for AVX-512 with VNNI (vpdpbusd for q.K and
// P~V, INT4 blocks read in place), all without FMA contraction. The first
// call picks the widest entry this CPU supports, from CPUID; nothing else
// selects it.
#pragma once

#include <span>
#include <vector>

#include "attention/config.h"
#include "kvcache/decode_buffer.h"
#include "kvcache/quantized_kv_cache.h"
#include "softmax/sas.h"

namespace turbo {

// Drop-in equivalent of turbo_attention_decode (block-view overload).
std::vector<float> fused_turbo_decode(
    std::span<const float> q, std::span<const KvBlock* const> blocks,
    const DecodeBuffer& key_buffer, const DecodeBuffer& value_buffer,
    const AttentionConfig& cfg, const Sas& sas);

// Convenience over a monolithic cache.
std::vector<float> fused_turbo_decode(std::span<const float> q,
                                      const QuantizedKvCache& cache,
                                      const AttentionConfig& cfg,
                                      const Sas& sas);

}  // namespace turbo
