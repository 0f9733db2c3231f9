//===----------------------------------------------------------------------===//
//
// Tests for the stable FNV-1a fingerprinting the result cache keys on. The
// exact output values are part of the cache's on-disk contract, so the
// known-answer vectors here are load-bearing: if they change, the cache
// format version must bump.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include <gtest/gtest.h>

using namespace rs;

TEST(Hash, EmptyInputIsOffsetBasis) {
  EXPECT_EQ(fnv1a64(""), Fnv1a64OffsetBasis);
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull);
}

TEST(Hash, KnownAnswerVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

TEST(Hash, ChainingMatchesConcatenation) {
  EXPECT_EQ(fnv1a64("b", fnv1a64("a")), fnv1a64("ab"));
  EXPECT_EQ(fnv1a64("llo world", fnv1a64("he")), fnv1a64("hello world"));
}

TEST(Hash, DistinctInputsDisagree) {
  EXPECT_NE(fnv1a64("fn main() {}"), fnv1a64("fn main() { }"));
  EXPECT_NE(fnv1a64U64(1), fnv1a64U64(2));
  EXPECT_NE(fnv1a64U64(1, fnv1a64("salt-a")), fnv1a64U64(1, fnv1a64("salt-b")));
}

TEST(Hash, U64FoldIsConstexprAndOrderSensitive) {
  static_assert(fnv1a64("abc") != Fnv1a64OffsetBasis);
  EXPECT_NE(fnv1a64U64(2, fnv1a64U64(1)), fnv1a64U64(1, fnv1a64U64(2)));
}

TEST(Hash, HexRoundTrip) {
  for (uint64_t H : {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
    std::string Hex = hashToHex(H);
    EXPECT_EQ(Hex.size(), 16u);
    uint64_t Back = 0;
    ASSERT_TRUE(hexToHash(Hex, Back)) << Hex;
    EXPECT_EQ(Back, H);
  }
  EXPECT_EQ(hashToHex(0x1ull), "0000000000000001");
}

TEST(Hash, MalformedHexRejected) {
  uint64_t Out = 0;
  EXPECT_FALSE(hexToHash("", Out));
  EXPECT_FALSE(hexToHash("123", Out));                 // Too short.
  EXPECT_FALSE(hexToHash("00000000000000001", Out));   // Too long.
  EXPECT_FALSE(hexToHash("000000000000000G", Out));    // Bad digit.
  EXPECT_FALSE(hexToHash("000000000000000A", Out));    // Uppercase.
}

TEST(Hash, BytesHexRoundTripsEveryByte) {
  std::string All;
  for (int B = 0; B != 256; ++B)
    All.push_back(static_cast<char>(B));
  const std::string Hex = bytesToHex(All);
  EXPECT_EQ(Hex.size(), 512u);
  EXPECT_EQ(Hex.substr(0, 6), "000102");
  EXPECT_EQ(Hex.substr(506), "fdfeff");
  std::string Back = "stale";
  ASSERT_TRUE(hexToBytes(Hex, Back));
  EXPECT_EQ(Back, All);
  ASSERT_TRUE(hexToBytes("", Back));
  EXPECT_EQ(Back, "");
  EXPECT_FALSE(hexToBytes("abc", Back)); // Odd length.
  EXPECT_FALSE(hexToBytes("0g", Back));  // Bad digit.
  EXPECT_FALSE(hexToBytes("0A", Back));  // Uppercase.
}
