// Runtime dispatch of progressive_compress, the second stage.
//
// progressive_compress has one compiled path per instruction set, each a
// row of the table below: "scalar", the channel-by-channel loop, and on
// x86-64 "avx512" (the CPU of cpu_has_avx512vnni), which takes every
// channel's extremes with vertical byte min/max, transposes the tile into
// channel rows and computes 32 codes per vpmulhuw, packing INT4 and INT2
// bytes straight from registers (INT3, and rows that leave a channel's
// codes off a byte boundary, run the scalar loop). Every path builds
// the same ProgressiveBlock byte for byte; docs/ALGORITHMS.md says why.
// progressive_compress runs the last path this CPU supports, picked once
// from CPUID (common/cpu.h).
//
// Both paths live in progressive_paths.cpp, tagged integer-kernel, so
// turbo_lint keeps the second stage free of floating point;
// progressive_compress checks and sets the block's first-stage scale.
//
// The table is the seam the parity tests and benches use to run every
// compiled path the host supports.
#pragma once

#include <span>

#include "common/matrix.h"
#include "quant/progressive.h"
#include "quant/types.h"

namespace turbo::detail {

// progressive_compress(q1, fp_scale, bits) with fp_scale left at its
// default. q1 is not empty, and bits is INT2, INT3 or INT4.
using ProgressiveCompressFn = ProgressiveBlock (*)(const MatrixI8& q1,
                                                   BitWidth bits);

// One compiled path of progressive_compress.
struct ProgressivePath {
  const char* name;  // "scalar" or "avx512"
  ProgressiveCompressFn compress;
  bool supported;  // this CPU can run it
};

// Every compiled path, scalar first.
std::span<const ProgressivePath> progressive_paths();

// The path progressive_compress runs: the last supported one, picked once.
const ProgressivePath& progressive_path();

}  // namespace turbo::detail
