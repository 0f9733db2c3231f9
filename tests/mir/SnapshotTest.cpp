//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary MIR snapshot round-trip and rejection tests. The load-bearing
/// property is byte-equality of the printer output: a module decoded from
/// a snapshot must print identically to the module it was encoded from,
/// over every corpus module in the repo. The rejection half checks the
/// trust model: truncation, bit flips, version/epoch skew and fingerprint
/// mismatches must all read as nullopt — a cache miss, never a crash.
///
//===----------------------------------------------------------------------===//

#include "mir/Parser.h"
#include "mir/Snapshot.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace fs = std::filesystem;

using namespace rs;
using namespace rs::mir;

namespace {

/// Encode -> decode -> print must reproduce the original printing exactly.
void expectRoundTrip(const Module &M, const std::string &Label,
                     uint64_t Fingerprint) {
  std::string Bytes = snapshot::write(M, Fingerprint);
  ASSERT_FALSE(Bytes.empty()) << Label;

  std::optional<uint64_t> Fp = snapshot::peekFingerprint(Bytes);
  ASSERT_TRUE(Fp.has_value()) << Label;
  EXPECT_EQ(*Fp, Fingerprint) << Label;

  std::optional<Module> Decoded = snapshot::read(Bytes, &Fingerprint);
  ASSERT_TRUE(Decoded.has_value()) << Label;
  EXPECT_EQ(M.toString(), Decoded->toString()) << Label;

  // A re-encode of the decoded module must be byte-identical too: the
  // writer is deterministic and the decode lost nothing it feeds from.
  EXPECT_EQ(Bytes, snapshot::write(*Decoded, Fingerprint)) << Label;
}

void roundTripSource(std::string_view Src, const std::string &Label) {
  auto R = Parser::parse(Src);
  ASSERT_TRUE(R) << Label << ": " << R.error().toString();
  expectRoundTrip(R.take(), Label, /*Fingerprint=*/0x9e3779b97f4a7c15ull);
}

/// Walks every parseable .mir under \p Dir and round-trips it.
void roundTripFilesUnder(const fs::path &Dir) {
  ASSERT_TRUE(fs::exists(Dir)) << Dir;
  unsigned Checked = 0;
  for (const auto &Entry : fs::recursive_directory_iterator(Dir)) {
    if (!Entry.is_regular_file() || Entry.path().extension() != ".mir")
      continue;
    std::ifstream In(Entry.path(), std::ios::binary);
    std::stringstream Buf;
    Buf << In.rdbuf();
    auto R = Parser::parse(Buf.str());
    if (!R)
      continue; // Malformed-on-purpose corpus entries are parser tests.
    Module M = R.take();
    expectRoundTrip(M, Entry.path().string(), /*Fingerprint=*/Checked);
    ++Checked;
  }
  EXPECT_GT(Checked, 0u) << "no parseable .mir files under " << Dir;
}

/// A representative module exercising every construct the wire format
/// carries: structs, statics, sync impls, locations, projections, all
/// terminator shapes, aggregate kinds and intrinsic calls.
const char *RichModule = R"(struct Packet { len: i32, flags: i32 }
struct Pair { a: i32, b: i32 }
static mut COUNTER: i32;
unsafe impl Sync for Packet;
fn id(_1: i32) -> i32 {
    bb0: {
        _0 = copy _1;
        return;
    }
}
fn main() -> i32 {
    let mut _1: i32;
    let mut _2: (i32, i32);
    let _3: &i32;
    let mut _4: Pair;
    let mut _5: i32;
    bb0: {
        StorageLive(_1);
        _1 = const 41_i32;
        _2 = (copy _1, const 1_i32);
        _3 = &_1;
        _4 = Pair { 0: copy _1, 1: copy _2.0 };
        _5 = Add(copy _4.0, copy (*_3));
        switchInt(copy _5) -> [0: bb1, otherwise: bb2];
    }
    bb1: {
        _0 = const 0_i32;
        return;
    }
    bb2: {
        _0 = id(move _5) -> [return: bb3, unwind: bb4];
    }
    bb3: {
        StorageDead(_1);
        return;
    }
    bb4: {
        resume;
    }
}
)";

std::string richSnapshot(uint64_t Fingerprint) {
  auto R = Parser::parse(RichModule);
  if (!R) {
    ADD_FAILURE() << "rich module failed to parse: "
                  << R.error().toString();
    return {};
  }
  return snapshot::write(R.take(), Fingerprint);
}

} // namespace

//===----------------------------------------------------------------------===//
// Round-trip byte-equality
//===----------------------------------------------------------------------===//

TEST(SnapshotRoundTrip, EmptyModule) {
  roundTripSource("", "empty module");
}

TEST(SnapshotRoundTrip, RichModule) {
  roundTripSource(RichModule, "rich module");
}

TEST(SnapshotRoundTrip, ExampleCorpus) {
  roundTripFilesUnder(fs::path(RS_REPO_ROOT) / "examples" / "mir");
}

TEST(SnapshotRoundTrip, EvalCorpus) {
  roundTripFilesUnder(fs::path(RS_REPO_ROOT) / "examples" / "mir" / "eval");
}

TEST(SnapshotRoundTrip, RegressionCorpus) {
  roundTripFilesUnder(fs::path(RS_REPO_ROOT) / "tests" / "mir" / "regress");
}

TEST(SnapshotRoundTrip, AnchorPathReplacesEveryLocationFile) {
  auto R = Parser::parse(RichModule, "first/place.mir");
  ASSERT_TRUE(R) << R.error().toString();
  std::string Bytes = snapshot::write(R.take(), 1);
  for (const char *Path : {"", "moved/elsewhere.mir"}) {
    std::optional<Module> M = snapshot::read(Bytes, nullptr, Path);
    ASSERT_TRUE(M.has_value());
    const std::string Want = *Path ? Path : "first/place.mir";
    size_t Seen = 0;
    for (const Function &F : M->functions())
      for (const BasicBlock &BB : F.Blocks) {
        for (const Statement &S : BB.Statements)
          if (S.Loc.isValid()) {
            EXPECT_EQ(S.Loc.file(), Want);
            ++Seen;
          }
        if (BB.Term.Loc.isValid()) {
          EXPECT_EQ(BB.Term.Loc.file(), Want);
          ++Seen;
        }
      }
    EXPECT_GT(Seen, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Rejection: every defect is a miss, never a crash
//===----------------------------------------------------------------------===//

TEST(SnapshotRoundTrip, BodyChecksumValuesArePinned) {
  // Every stored snapshot carries the word-fold checksum of its body in
  // header bytes 28..35 (little-endian). Body sizes 30 and 32 cover a
  // partial tail word and none (which is not folded); a changed value
  // would reject every snapshot already on disk.
  struct Case {
    const char *Src;
    uint64_t BodySize;
    uint64_t Checksum;
  };
  const Case Cases[] = {
      {"fn f() { bb0: { return; } }\n", 30, 0x333c13c80e6be2e7ull},
      {"fn fab() { bb0: { return; } }\n", 32, 0x3a400ae013e678a4ull},
  };
  auto U64At = [](const std::string &B, size_t Off) {
    uint64_t V = 0;
    for (int I = 7; I >= 0; --I)
      V = (V << 8) | static_cast<unsigned char>(B[Off + I]);
    return V;
  };
  for (const Case &C : Cases) {
    auto R = Parser::parse(C.Src);
    ASSERT_TRUE(R) << C.Src;
    std::string Bytes = snapshot::write(R.take(), /*Fingerprint=*/7);
    ASSERT_GE(Bytes.size(), 36u);
    EXPECT_EQ(U64At(Bytes, 20), C.BodySize) << C.Src;
    EXPECT_EQ(U64At(Bytes, 28), C.Checksum) << C.Src;
  }
}

TEST(SnapshotReject, EveryTruncationFails) {
  const uint64_t Fp = 0xabcdef0123456789ull;
  std::string Bytes = richSnapshot(Fp);
  ASSERT_FALSE(Bytes.empty());
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::string_view Prefix(Bytes.data(), Len);
    EXPECT_FALSE(snapshot::read(Prefix, &Fp).has_value())
        << "truncation to " << Len << " of " << Bytes.size()
        << " bytes decoded";
  }
}

TEST(SnapshotReject, EverySingleBitFlipFails) {
  // With an expected fingerprint, no single-bit flip anywhere survives:
  // header fields are validated (magic, versions, fingerprint, size) and
  // the payload is covered by the checksum.
  const uint64_t Fp = 0x1122334455667788ull;
  std::string Bytes = richSnapshot(Fp);
  ASSERT_FALSE(Bytes.empty());
  for (size_t I = 0; I < Bytes.size(); ++I) {
    for (int Bit = 0; Bit < 8; Bit += 3) { // Bits 0, 3, 6 of every byte.
      std::string Mut = Bytes;
      Mut[I] = static_cast<char>(Mut[I] ^ (1 << Bit));
      EXPECT_FALSE(snapshot::read(Mut, &Fp).has_value())
          << "bit " << Bit << " of byte " << I << " flipped and decoded";
    }
  }
}

TEST(SnapshotReject, SchemaVersionSkew) {
  const uint64_t Fp = 1;
  std::string Bytes = richSnapshot(Fp);
  ASSERT_FALSE(Bytes.empty());
  // Schema version lives right after the 4-byte magic (little-endian u32).
  Bytes[4] = static_cast<char>(snapshot::SnapshotSchemaVersion + 1);
  EXPECT_FALSE(snapshot::read(Bytes, &Fp).has_value());
  EXPECT_FALSE(snapshot::read(Bytes).has_value());
}

TEST(SnapshotReject, InternerEpochSkew) {
  const uint64_t Fp = 1;
  std::string Bytes = richSnapshot(Fp);
  ASSERT_FALSE(Bytes.empty());
  // Interner epoch follows the schema version (bytes 8..11).
  Bytes[8] = static_cast<char>(Symbol::EpochVersion + 1);
  EXPECT_FALSE(snapshot::read(Bytes, &Fp).has_value());
}

TEST(SnapshotReject, FingerprintMismatch) {
  const uint64_t Fp = 42;
  std::string Bytes = richSnapshot(Fp);
  ASSERT_FALSE(Bytes.empty());
  const uint64_t Wrong = 43;
  EXPECT_FALSE(snapshot::read(Bytes, &Wrong).has_value());
  // Without an expectation the same bytes decode fine.
  EXPECT_TRUE(snapshot::read(Bytes).has_value());
  EXPECT_TRUE(snapshot::read(Bytes, &Fp).has_value());
}

TEST(SnapshotReject, GarbageAndEmptyInputs) {
  EXPECT_FALSE(snapshot::read("").has_value());
  EXPECT_FALSE(snapshot::read("RSMS").has_value());
  EXPECT_FALSE(snapshot::read(std::string(1024, '\0')).has_value());
  std::string NotOurs = "RSCB" + std::string(128, 'x');
  EXPECT_FALSE(snapshot::read(NotOurs).has_value());
  EXPECT_FALSE(snapshot::peekFingerprint("RS").has_value());
}

TEST(SnapshotReject, TrailingGarbageFails) {
  const uint64_t Fp = 7;
  std::string Bytes = richSnapshot(Fp);
  ASSERT_FALSE(Bytes.empty());
  Bytes += "extra";
  EXPECT_FALSE(snapshot::read(Bytes, &Fp).has_value());
}
