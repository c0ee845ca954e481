// Fused TurboAttention prefill kernel (Algorithm 1).
//
// turbo_attention_prefill (attention/turbo_prefill.cpp) is the scalar
// oracle: it copies every tile, runs QK^T and P~V as per-element loops and
// calls Sas::exp_neg once per score. This kernel is what TurboKvAttention
// runs. For each (Q tile, KV tile) it
//
//   * quantizes the Q/K/V tiles straight from the input rows (stage 1,
//     vectorized abs-max scale and rounding);
//   * computes each row's scores over its visible keys as exact int32
//     dot products, skipping KV tiles no row of the Q tile can see;
//   * shifts each row by its new maximum and sends the tile's scores and
//     rescale factors through one Sas::apply call;
//   * quantizes P~ to byte codes and runs P~V as an integer matmul, exact
//     in int32, over a quad-major copy of the V tile (four keys of one
//     channel per dword), skipping quads of zero codes.
//
// Its output (o, lse and the cache) is bit-identical to the oracle's;
// fused_prefill_test pins that for every compiled entry. Dispatch is the
// decode kernel's (kernels/dispatch.h): baseline, AVX2 + F16C (P~V on
// maddubs), AVX-512 with VNNI, where QK^T and P~V run one query row at a
// time on vpdpbusd, or AMX, where each (Q tile, KV tile) step is
// key-major: K Q^T (tdpbssd) and O^T = V^T P~^T (tdpbsud) are AMX-INT8
// tile products for all of the tile's rows at once, with the operands
// padded with zero bytes to whole 16-row, 64-byte tiles, and each query
// row is one lane of the vector code between them, its O transposed. The
// tiles are configured once per call and released on every exit from it.
#pragma once

#include "attention/config.h"
#include "attention/turbo.h"
#include "common/matrix.h"
#include "kvcache/quantized_kv_cache.h"
#include "softmax/sas.h"

namespace turbo {

// Drop-in equivalent of turbo_attention_prefill.
TurboPrefillResult fused_turbo_prefill(const MatrixF& q, const MatrixF& k,
                                       const MatrixF& v,
                                       const AttentionConfig& cfg,
                                       const Sas& sas,
                                       QuantizedKvCache* cache);

}  // namespace turbo
