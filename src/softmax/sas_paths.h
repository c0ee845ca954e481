// Runtime dispatch of Sas::apply.
//
// Sas::apply has one compiled path per instruction set, each a row of the
// table below: "scalar", exp_neg per value; on x86-64 "avx2", eight FP32
// lanes with F16C round trips (AVX2 + F16C, LUTs of up to 8 entries);
// "avx512", sixteen FP32 lanes with F16C round trips (the CPU of
// cpu_has_avx512vnni, LUTs of up to 16); and "avx512fp16", 32 binary16
// lanes on native binary16 arithmetic (cpu_has_avx512fp16, LUTs of up to
// 16). A path runs exp_neg for the configurations its vector code does not
// take (FP32 arithmetic, exact exp, a wider LUT), so every path is exp_neg
// bit for bit on every input. Sas::apply runs the last path this CPU
// supports, picked once from CPUID (common/cpu.h).
//
// The table is the seam the parity tests and benches use to run every
// compiled path the host supports, the narrower ones included.
#pragma once

#include <span>

#include "softmax/sas.h"

namespace turbo::detail {

// values[i] = sas.exp_neg(values[i]) for every i, bit for bit.
using SasApplyFn = void (*)(const Sas& sas, std::span<float> values);

// One compiled path of Sas::apply.
struct SasPath {
  const char* name;  // "scalar", "avx2", "avx512" or "avx512fp16"
  SasApplyFn apply;
  bool supported;  // this CPU can run it
};

// Every compiled path, scalar first.
std::span<const SasPath> sas_paths();

// The path Sas::apply runs: the last supported one, picked once.
const SasPath& sas_path();

}  // namespace turbo::detail
