// The AVX-512 VNNI and AMX entries of the fused kernels
// (kernels/dispatch.h): the decode and prefill bodies compiled a third
// time, for AVX2 + F16C + AVX-512 F/BW/VL/VNNI, with kAvx512 turning on
// their vpdpbusd and 16-lane helpers, and the prefill body instantiated
// twice: without AMX for the "avx512vnni" entry, and with kAmx, whose
// QK^T and P~V run on AMX-INT8 tiles, for the "amx" entry. The "amx" entry
// runs this build's decode. The target adds AMX-TILE and AMX-INT8, which
// GCC never emits on its own: only the kAmx instance's tile intrinsics
// use them. fused_kernels.cpp holds the other two builds and the table.
//
// It has its own translation unit so that fused_kernels.cpp stays under
// GCC's inlining growth limit. Compiled into that file, it made GCC stop
// inlining the check messages' ostringstream code in the other builds,
// which dropped one dynamic import (std::__throw_out_of_range_fmt), and
// with it one PLT slot, moving every linked executable's own code by 16
// bytes, bench/e2e's host probe included.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
// GCC 12's AVX-512 headers trip -Wmaybe-uninitialized and
// -Wuninitialized inside their own inline functions (_mm512_cvtepi8_epi32,
// _mm512_cvtps_ph, _mm512_cvtepi32_ps through _mm512_undefined_ps, and
// others). The warning is located in the header, so only a pragma around
// the include silences it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

#include "common/avx512.h"
#include "common/check.h"
#include "common/cpu.h"
#include "common/numeric.h"
#include "kernels/dispatch.h"
#include "kernels/fused_decode.h"
#include "kernels/fused_prefill.h"
#include "quant/packing.h"
#include "quant/progressive.h"
#include "quant/symmetric.h"

namespace turbo::detail {

// Every header the bodies need is included above, before the target
// pragma. The target enables FMA; kernels/CMakeLists.txt compiles this
// file with -ffp-contract=off so nothing contracts.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC target( \
    "avx2,f16c,avx512f,avx512bw,avx512vl,avx512vnni,amx-tile,amx-int8")
namespace avx512vnni_isa {
constexpr bool kSimd = true;
constexpr bool kAvx512 = true;
#include "kernels/fused_decode_body.h"
#include "kernels/fused_prefill_body.h"
// The "avx512vnni" entry's prefill, and the "amx" entry's.
template TurboPrefillResult fused_prefill<false>(const MatrixF&,
                                                 const MatrixF&,
                                                 const MatrixF&,
                                                 const AttentionConfig&,
                                                 const Sas&,
                                                 QuantizedKvCache*);
template TurboPrefillResult fused_prefill<true>(const MatrixF&,
                                                const MatrixF&,
                                                const MatrixF&,
                                                const AttentionConfig&,
                                                const Sas&,
                                                QuantizedKvCache*);
}  // namespace avx512vnni_isa
#pragma GCC pop_options
#endif

}  // namespace turbo::detail
