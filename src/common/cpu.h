// CPU feature checks for the kernels' runtime dispatch.
//
// The fused kernels (kernels/dispatch.h) and the batch SAS
// (Sas::apply) have three builds: the baseline ISA, AVX2 + F16C, and
// AVX-512 with VNNI. Each predicate below says whether this CPU, and the
// OS, can run one of the wider builds. They read CPUID; callers cache the
// answer in a function-local static.
#pragma once

namespace turbo {

// AVX2 + F16C: the kernels' "avx2" entry and the 8-lane SAS.
inline bool cpu_has_avx2_f16c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

// AVX2 + F16C + AVX-512 F/BW/VL + AVX-512 VNNI: the kernels'
// "avx512vnni" entry and the 16-lane SAS.
inline bool cpu_has_avx512vnni() {
#if defined(__x86_64__)
  return cpu_has_avx2_f16c() && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

}  // namespace turbo
