// turbo-lint: integer-kernel
#include "quant/packing.h"

#include <bit>
#include <cstring>

#include "common/check.h"
#include "common/numeric.h"

namespace turbo {

std::size_t packed_byte_count(std::size_t count, BitWidth bits) {
  const std::size_t b = static_cast<std::size_t>(bit_count(bits));
  return (count * b + 7) / 8;
}

namespace {

// out[j] = codes [j * kPerByte, (j + 1) * kPerByte), little-endian in the
// byte, for every whole byte; a loop the compiler vectorizes. Returns the
// codes packed.
template <std::size_t kPerByte>
std::size_t pack_whole_bytes(std::span<const std::uint8_t> codes,
                             std::uint8_t mask, std::span<std::uint8_t> out) {
  constexpr std::size_t kBits = 8 / kPerByte;
  const std::size_t bytes = codes.size() / kPerByte;
  for (std::size_t j = 0; j < bytes; ++j) {
    unsigned packed = 0;
    for (std::size_t k = 0; k < kPerByte; ++k) {
      const std::uint8_t code = codes[j * kPerByte + k];
      TURBO_DCHECK((code & ~mask) == 0);
      packed |= static_cast<unsigned>(code & mask) << (k * kBits);
    }
    out[j] = trunc_to_u8(packed);
  }
  return bytes * kPerByte;
}

}  // namespace

std::vector<std::uint8_t> pack_codes(std::span<const std::uint8_t> codes,
                                     BitWidth bits) {
  const int b = bit_count(bits);
  const std::uint8_t mask = trunc_to_u8((1u << static_cast<unsigned>(b)) - 1u);
  std::vector<std::uint8_t> out(packed_byte_count(codes.size(), bits), 0);
  // INT4 and INT2 codes never straddle a byte: fill whole bytes (two or
  // four codes each), and leave only a final partial byte to the general
  // bit loop below.
  std::size_t i = 0;
  if (bits == BitWidth::kInt4) {
    i = pack_whole_bytes<2>(codes, mask, out);
  } else if (bits == BitWidth::kInt2) {
    i = pack_whole_bytes<4>(codes, mask, out);
  }
  std::size_t bitpos = i * static_cast<std::size_t>(b);
  for (; i < codes.size(); ++i) {
    const std::uint8_t code = codes[i];
    TURBO_DCHECK((code & ~mask) == 0);
    const std::size_t byte = bitpos >> 3;
    const unsigned shift = bitpos & 7u;
    out[byte] |= trunc_to_u8((code & mask) << shift);
    // A code can straddle a byte boundary (3-bit case).
    if (shift + static_cast<unsigned>(b) > 8) {
      out[byte + 1] |= trunc_to_u8((code & mask) >> (8 - shift));
    }
    bitpos += static_cast<std::size_t>(b);
  }
  return out;
}

void unpack_codes(std::span<const std::uint8_t> packed, BitWidth bits,
                  std::size_t count, std::span<std::uint8_t> out) {
  TURBO_CHECK(out.size() >= count);
  TURBO_CHECK(packed.size() >= packed_byte_count(count, bits));
  const int b = bit_count(bits);
  const std::uint8_t mask = trunc_to_u8((1u << static_cast<unsigned>(b)) - 1u);
  // INT4 and INT2 codes never straddle a byte: expand whole bytes (two or
  // four codes each) in a loop the compiler vectorizes, and leave only a
  // final partial byte to the general bit loop below.
  std::size_t i = 0;
  const std::uint8_t* in = packed.data();
  std::uint8_t* dst = out.data();
  if (bits == BitWidth::kInt4) {
    const std::size_t bytes = count / 2;
    for (std::size_t j = 0; j < bytes; ++j) {
      dst[2 * j] = trunc_to_u8(in[j] & 0x0Fu);
      dst[2 * j + 1] = trunc_to_u8(in[j] >> 4);
    }
    i = bytes * 2;
  } else if (bits == BitWidth::kInt2 &&
             std::endian::native == std::endian::little) {
    // Spread the byte's four 2-bit fields into the four bytes of a 32-bit
    // word (code k lands in byte k), then store the word.
    const std::size_t bytes = count / 4;
    for (std::size_t j = 0; j < bytes; ++j) {
      std::uint32_t x = in[j];
      x = (x | (x << 12)) & 0x000F000Fu;
      x = (x | (x << 6)) & 0x03030303u;
      std::memcpy(dst + 4 * j, &x, sizeof(x));
    }
    i = bytes * 4;
  }
  std::size_t bitpos = i * static_cast<std::size_t>(b);
  for (; i < count; ++i) {
    const std::size_t byte = bitpos >> 3;
    const unsigned shift = bitpos & 7u;
    unsigned v = static_cast<unsigned>(packed[byte]) >> shift;
    if (shift + static_cast<unsigned>(b) > 8) {
      v |= static_cast<unsigned>(packed[byte + 1]) << (8 - shift);
    }
    out[i] = trunc_to_u8(v & mask);
    bitpos += static_cast<std::size_t>(b);
  }
}

std::vector<std::uint8_t> unpack_codes(std::span<const std::uint8_t> packed,
                                       BitWidth bits, std::size_t count) {
  std::vector<std::uint8_t> out(count);
  unpack_codes(packed, bits, count, out);
  return out;
}

}  // namespace turbo
