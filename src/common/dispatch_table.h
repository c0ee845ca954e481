// The pick shared by the runtime dispatch tables: the fused kernels'
// entries (kernels/dispatch.h), Sas::apply's paths (softmax/sas_paths.h)
// and progressive_compress's paths (quant/progressive_paths.h). Each table
// lists its rows narrowest first, the first one always supported, and
// each row says in `supported` whether this CPU can run it.
#pragma once

#include <span>

namespace turbo {

// The last row of `table` this CPU supports. Callers keep the answer in a
// function-local static, so CPUID is read once.
template <typename Row>
const Row& last_supported(std::span<const Row> table) {
  const Row* picked = &table.front();
  for (const Row& row : table) {
    if (row.supported) picked = &row;
  }
  return *picked;
}

}  // namespace turbo
