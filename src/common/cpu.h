// CPU feature check for the kernels' runtime dispatch.
#pragma once

namespace turbo {

// True when this CPU, and the OS, can run the kernels' AVX2 + F16C builds
// (the softmax batch SAS and the fused decode). Read from CPUID; callers
// cache the answer in a function-local static.
inline bool cpu_has_avx2_f16c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

}  // namespace turbo
