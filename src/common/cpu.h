// CPU feature checks for the kernels' runtime dispatch.
//
// The fused kernels (kernels/dispatch.h) and the batch SAS (Sas::apply,
// softmax/sas_paths.h) have three builds: the baseline ISA, AVX2 + F16C,
// and AVX-512 with VNNI. The fused prefill has a fourth, the AVX-512 build
// with its QK^T and P~V on AMX-INT8 tiles; the batch SAS has a fourth too,
// the AVX-512 build with its binary16 arithmetic on AVX-512 FP16. Each
// predicate below says whether this CPU, and the OS, can run one of the
// wider builds. They read CPUID; callers cache the answer in a
// function-local static.
#pragma once

#if defined(__x86_64__)
#include <cpuid.h>
#endif

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

// cpu_has_avx512vnni() + AVX-512 FP16: the 32-lane binary16 SAS. The FP16
// bit is read from CPUID (leaf 7, EDX bit 23), since clang before 16 does
// not know __builtin_cpu_supports("avx512fp16"); cpu_has_avx512vnni()
// already asks that the OS saves the AVX-512 state.
inline bool cpu_has_avx512fp16() {
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  return cpu_has_avx512vnni() &&
         __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 &&
         (edx & (1u << 23)) != 0;
#else
  return false;
#endif
}

// cpu_has_avx512vnni() + AMX-TILE + AMX-INT8, with the tile data state
// granted to this process: the kernels' "amx" entry. Linux enables that
// state only for a process that asks for it, arch_prctl(ARCH_REQ_XCOMP_PERM
// = 0x1023, XFEATURE_XTILEDATA = 18); before that, a tile instruction
// raises SIGILL. The grant covers every thread of the process. The request
// is made once per process, through the raw syscall instruction: libc's
// syscall() would add a dynamic import to every binary that links the
// kernels. GCC only, like the entry.
inline bool cpu_has_amx_int8() {
#if defined(__x86_64__) && defined(__linux__) && defined(__GNUC__) && \
    !defined(__clang__)
  static const bool kGranted = [] {
    if (!cpu_has_avx512vnni() || !__builtin_cpu_supports("amx-tile") ||
        !__builtin_cpu_supports("amx-int8")) {
      return false;
    }
    long ret = 158;  // SYS_arch_prctl
    asm volatile("syscall"
                 : "+a"(ret)
                 : "D"(0x1023L), "S"(18L)
                 : "rcx", "r11", "memory");
    return ret == 0;
  }();
  return kGranted;
#else
  return false;
#endif
}

}  // namespace turbo
