// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "kernels/dispatch.h"
#include "quant/packing.h"
#include "quant/progressive_paths.h"
#include "softmax/sas_paths.h"

namespace turbo::test {

// Random normal matrix with the given stddev.
inline MatrixF random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed, double stddev = 1.0) {
  MatrixF m(rows, cols);
  Rng rng(seed);
  rng.fill_normal(m.flat(), 0.0, stddev);
  return m;
}

// Random matrix with heavy per-channel outliers: a few columns scaled up,
// mimicking the channel-outlier structure of real K/V caches (Fig. 4).
inline MatrixF random_outlier_matrix(std::size_t rows, std::size_t cols,
                                     std::uint64_t seed,
                                     double outlier_scale = 8.0,
                                     std::size_t n_outliers = 4) {
  MatrixF m = random_matrix(rows, cols, seed);
  Rng rng(seed ^ 0xabcdef);
  for (std::size_t i = 0; i < n_outliers && i < cols; ++i) {
    const std::size_t c = rng.uniform_index(cols);
    for (std::size_t r = 0; r < rows; ++r) {
      m(r, c) *= static_cast<float>(outlier_scale);
    }
  }
  return m;
}

// pack_codes one code at a time through a bit cursor: the reference for
// its whole-byte loops.
inline std::vector<std::uint8_t> pack_codes_bitwise(
    std::span<const std::uint8_t> codes, BitWidth bits) {
  const int b = bit_count(bits);
  const unsigned mask = (1u << b) - 1u;
  std::vector<std::uint8_t> out(packed_byte_count(codes.size(), bits), 0);
  std::size_t bitpos = 0;
  for (const std::uint8_t code : codes) {
    const std::size_t byte = bitpos >> 3;
    const unsigned shift = bitpos & 7u;
    out[byte] |= static_cast<std::uint8_t>(((code & mask) << shift) & 0xFFu);
    // A code can straddle a byte boundary (3-bit case).
    if (shift + static_cast<unsigned>(b) > 8) {
      out[byte + 1] |= static_cast<std::uint8_t>((code & mask) >> (8 - shift));
    }
    bitpos += static_cast<std::size_t>(b);
  }
  return out;
}

// Record which fused-kernel entries, Sas::apply paths and
// progressive_compress paths a parity test runs, the ones this CPU
// supports, as the test property `fused_entries` and one stdout line, so
// a CI log shows whether the AVX-512, AMX and AVX-512 FP16 code ran. SAS
// paths carry a `sas:` prefix and second-stage paths a `stage2:` prefix.
// A second line, `[ untested ]`, names the compiled entries and paths this
// CPU cannot run; tools/check.sh prints the union of both over a lane's
// tests.
inline void record_fused_entries() {
  std::string names;
  std::string untested;
  const auto add = [&](bool supported, const std::string& name) {
    std::string& list = supported ? names : untested;
    if (!list.empty()) list += ' ';
    list += name;
  };
  for (const detail::FusedEntry& e : detail::fused_entries()) {
    add(e.supported, e.name);
  }
  for (const detail::SasPath& p : detail::sas_paths()) {
    add(p.supported, std::string("sas:") + p.name);
  }
  for (const detail::ProgressivePath& p : detail::progressive_paths()) {
    add(p.supported, std::string("stage2:") + p.name);
  }
  ::testing::Test::RecordProperty("fused_entries", names);
  std::cout << "[ entries  ] " << names << '\n';
  if (!untested.empty()) std::cout << "[ untested ] " << untested << '\n';
}

}  // namespace turbo::test
