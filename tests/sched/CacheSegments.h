//===----------------------------------------------------------------------===//
//
// A test-side reader and writer for the result cache's on-disk segments,
// written from the format description in sched/ResultCache.h rather than
// from its code, so the tests pin the bytes: entries in the "RSCB"
// envelope, then (key, offset, length) index records, then the 40-byte
// footer "RSSG" + version + count + index offset + index checksum + footer
// checksum. Tools for the drills that edit cache entries in place.
//
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_TESTS_SCHED_CACHESEGMENTS_H
#define RUSTSIGHT_TESTS_SCHED_CACHESEGMENTS_H

#include "sched/ResultCache.h"
#include "support/Hash.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace rs::cachetest {

namespace fs = std::filesystem;

constexpr size_t EnvelopeHeader = 32;
constexpr size_t FooterSize = 40;

inline void putLE(std::string &Out, uint64_t V, int Bytes) {
  for (int I = 0; I != Bytes; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

inline uint64_t getLE(std::string_view In, size_t At, int Bytes) {
  uint64_t V = 0;
  for (int I = 0; I != Bytes; ++I)
    V |= uint64_t(static_cast<uint8_t>(In[At + I])) << (8 * I);
  return V;
}

inline std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

inline void spill(const fs::path &P, std::string_view Bytes) {
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

/// The one entry envelope: "RSCB", version, key, size, checksum, payload.
inline std::string envelope(uint64_t Key, std::string_view Payload) {
  std::string E = "RSCB";
  putLE(E, sched::ResultCache::DiskBlobFormatVersion, 4);
  putLE(E, Key, 8);
  putLE(E, Payload.size(), 8);
  putLE(E, fnv1a64(Payload), 8);
  E.append(Payload);
  return E;
}

/// One index record: the key it names and the envelope bytes it points at
/// (which need not be a valid envelope of that key).
struct RawEntry {
  uint64_t Key;
  std::string Envelope;
};

/// A sealed segment over \p Entries, laid out in order.
inline std::string segmentBytes(const std::vector<RawEntry> &Entries) {
  std::string Body, Index;
  for (const RawEntry &E : Entries) {
    putLE(Index, E.Key, 8);
    putLE(Index, Body.size(), 8);
    putLE(Index, E.Envelope.size(), 8);
    Body += E.Envelope;
  }
  std::string Footer = "RSSG";
  putLE(Footer, sched::ResultCache::SegmentFormatVersion, 4);
  putLE(Footer, Entries.size(), 8);
  putLE(Footer, Body.size(), 8);
  putLE(Footer, fnv1a64(Index), 8);
  putLE(Footer, fnv1a64(Footer), 8);
  return Body + Index + Footer;
}

/// A sealed segment name of generation \p Gen.
inline std::string segmentName(uint64_t Gen, const char *Writer = "1-0") {
  return "rsseg-" + hashToHex(Gen) + "-" + Writer + ".seg";
}

/// The sealed segments in \p Dir, newest first.
inline std::vector<fs::path> segments(const fs::path &Dir) {
  std::vector<fs::path> Out;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec))
    if (It->path().extension() == ".seg")
      Out.push_back(It->path());
  std::sort(Out.rbegin(), Out.rend());
  return Out;
}

/// Every file in \p Dir.
inline size_t fileCount(const fs::path &Dir) {
  size_t N = 0;
  std::error_code Ec;
  for (fs::directory_iterator It(Dir, Ec), End; !Ec && It != End;
       It.increment(Ec))
    ++N;
  return N;
}

/// An entry as stored: key, payload, and where its envelope lives.
struct Entry {
  uint64_t Key;
  std::string Payload;
  fs::path Segment;
  uint64_t Offset;
};

/// The entries of the segment \p Bytes, or nullopt when its footer or
/// index is damaged. Envelopes are not checked.
inline std::optional<std::vector<Entry>> parseSegment(std::string_view Bytes,
                                                      const fs::path &Path) {
  if (Bytes.size() < FooterSize)
    return std::nullopt;
  std::string_view Footer = Bytes.substr(Bytes.size() - FooterSize);
  if (Footer.substr(0, 4) != "RSSG" ||
      getLE(Footer, 32, 8) != fnv1a64(Footer.substr(0, 32)))
    return std::nullopt;
  const uint64_t Count = getLE(Footer, 8, 8), IndexOff = getLE(Footer, 16, 8);
  if (IndexOff + Count * 24 + FooterSize != Bytes.size())
    return std::nullopt;
  std::vector<Entry> Out;
  for (uint64_t I = 0; I != Count; ++I) {
    const size_t At = IndexOff + I * 24;
    const uint64_t Off = getLE(Bytes, At + 8, 8);
    const uint64_t Len = getLE(Bytes, At + 16, 8);
    Out.push_back({getLE(Bytes, At, 8),
                   std::string(Bytes.substr(Off + EnvelopeHeader,
                                            Len - EnvelopeHeader)),
                   Path, Off});
  }
  return Out;
}

/// Every entry of every sealed segment in \p Dir, newest segment first.
inline std::vector<Entry> entries(const fs::path &Dir) {
  std::vector<Entry> Out;
  for (const fs::path &P : segments(Dir))
    if (auto Es = parseSegment(slurp(P), P))
      Out.insert(Out.end(), Es->begin(), Es->end());
  return Out;
}

/// The newest entry under \p Key in \p Dir.
inline std::optional<Entry> findEntry(const fs::path &Dir, uint64_t Key) {
  for (Entry &E : entries(Dir))
    if (E.Key == Key)
      return std::move(E);
  return std::nullopt;
}

/// Rewrites every segment in \p Dir through \p Edit, which may change an
/// entry's payload and returns false to drop the entry; envelopes, index
/// and footer are re-sealed, so only the layers above the cache can tell.
/// Returns how many entries \p Edit changed or dropped.
inline size_t editEntries(
    const fs::path &Dir,
    const std::function<bool(uint64_t Key, std::string &Payload)> &Edit) {
  size_t Touched = 0;
  for (const fs::path &P : segments(Dir)) {
    std::optional<std::vector<Entry>> Es = parseSegment(slurp(P), P);
    if (!Es)
      continue;
    std::vector<RawEntry> Kept;
    for (Entry &E : *Es) {
      std::string Payload = E.Payload;
      bool Keep = Edit(E.Key, Payload);
      if (!Keep || Payload != E.Payload)
        ++Touched;
      if (Keep)
        Kept.push_back({E.Key, envelope(E.Key, Payload)});
    }
    spill(P, segmentBytes(Kept));
  }
  return Touched;
}

/// Flips the last payload byte of \p E in place, without re-sealing: the
/// entry's checksum no longer matches.
inline void corruptPayload(const Entry &E) {
  std::fstream F(E.Segment, std::ios::in | std::ios::out | std::ios::binary);
  const auto At = static_cast<std::streamoff>(E.Offset + EnvelopeHeader +
                                              E.Payload.size() - 1);
  F.seekp(At);
  F.put(static_cast<char>(E.Payload.back() ^ 0x40));
}

} // namespace rs::cachetest

#endif // RUSTSIGHT_TESTS_SCHED_CACHESEGMENTS_H
