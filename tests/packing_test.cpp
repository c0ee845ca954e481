#include "quant/packing.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tests/test_util.h"

namespace turbo {
namespace {

TEST(PackingTest, ByteCounts) {
  EXPECT_EQ(packed_byte_count(8, BitWidth::kInt2), 2u);
  EXPECT_EQ(packed_byte_count(8, BitWidth::kInt4), 4u);
  EXPECT_EQ(packed_byte_count(8, BitWidth::kInt3), 3u);
  EXPECT_EQ(packed_byte_count(3, BitWidth::kInt4), 2u);  // rounds up
  EXPECT_EQ(packed_byte_count(0, BitWidth::kInt2), 0u);
}

TEST(PackingTest, Int4KnownLayout) {
  std::vector<std::uint8_t> codes{0x1, 0xf};
  const auto packed = pack_codes(codes, BitWidth::kInt4);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0xf1);  // little-endian within the byte
}

TEST(PackingTest, Int2KnownLayout) {
  std::vector<std::uint8_t> codes{0x3, 0x0, 0x1, 0x2};
  const auto packed = pack_codes(codes, BitWidth::kInt2);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0], 0b10010011);
}

class PackingRoundTrip
    : public ::testing::TestWithParam<std::tuple<BitWidth, std::size_t>> {};

TEST_P(PackingRoundTrip, RoundTripsExactly) {
  const auto [bits, count] = GetParam();
  Rng rng(static_cast<std::uint64_t>(count) * 31 +
          static_cast<std::uint64_t>(bit_count(bits)));
  std::vector<std::uint8_t> codes(count);
  for (auto& c : codes) {
    c = static_cast<std::uint8_t>(rng.uniform_index(level_count(bits)));
  }
  const auto packed = pack_codes(codes, bits);
  EXPECT_EQ(packed.size(), packed_byte_count(count, bits));
  const auto back = unpack_codes(packed, bits, count);
  EXPECT_EQ(back, codes);
}

TEST_P(PackingRoundTrip, MatchesTheBitwisePack) {
  // INT4 and INT2 pack whole bytes, then the bit loop takes the rest.
  const auto [bits, count] = GetParam();
  Rng rng(static_cast<std::uint64_t>(count) * 37 +
          static_cast<std::uint64_t>(bit_count(bits)));
  std::vector<std::uint8_t> codes(count);
  for (auto& c : codes) {
    c = static_cast<std::uint8_t>(rng.uniform_index(level_count(bits)));
  }
  EXPECT_EQ(pack_codes(codes, bits), test::pack_codes_bitwise(codes, bits));
}

// Every count from 0 to 70, so the whole-byte loops and the bit loop meet
// at every remainder, and one long run.
std::vector<std::size_t> pack_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t n = 0; n <= 70; ++n) counts.push_back(n);
  counts.push_back(1000);
  return counts;
}

INSTANTIATE_TEST_SUITE_P(
    AllWidthsAndSizes, PackingRoundTrip,
    ::testing::Combine(::testing::Values(BitWidth::kInt2, BitWidth::kInt3,
                                         BitWidth::kInt4),
                       ::testing::ValuesIn(pack_counts())));

TEST(PackingTest, StraddlingByteBoundaries) {
  // 3-bit codes straddle byte boundaries; all-max codes stress the carry.
  std::vector<std::uint8_t> codes(17, 0x7);
  const auto packed = pack_codes(codes, BitWidth::kInt3);
  const auto back = unpack_codes(packed, BitWidth::kInt3, codes.size());
  EXPECT_EQ(back, codes);
}

TEST(PackingTest, CompressionRatioInt2) {
  std::vector<std::uint8_t> codes(256, 0x2);
  const auto packed = pack_codes(codes, BitWidth::kInt2);
  EXPECT_EQ(packed.size(), 64u);  // 4x over one-byte-per-code
}

}  // namespace
}  // namespace turbo
