//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned binary MIR snapshots: a Module serialized to bytes.
/// Its only user is perfbench's pipeline replay; the codec is deleted with
/// that replay (ROADMAP, "Tracing inside the engine").
///
/// Wire format (all integers little-endian):
///
///   header:
///     magic            "RSMS" (4 bytes)
///     schema version   u32  (SnapshotSchemaVersion)
///     interner epoch   u32  (Symbol::EpochVersion)
///     fingerprint      u64  (caller-supplied content fingerprint)
///     payload size     u64
///     payload checksum u64  (FNV-1a over the payload bytes)
///   payload:
///     string table     u32 count, then (u32 len, bytes) per string. Index
///                      0 is always "". Symbols and struct-field names are
///                      written as table indices, so snapshots are portable
///                      across processes whatever the interner state.
///     type table       u32 count, then one record per type, children
///                      before parents (type references are table indices).
///     structs, statics, sync impls (name-sorted), functions.
///
/// Trust model: snapshot bytes are a cache artifact, not an interchange
/// format — but the reader still bounds-checks every read, validates the
/// checksum before decoding, and range-checks every table index. Any
/// defect (truncation, bit flips, version or epoch skew, fingerprint
/// mismatch) returns nullopt: the caller treats it as a cache miss and
/// falls back to the parser. Never a crash, never a partial module.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_MIR_SNAPSHOT_H
#define RUSTSIGHT_MIR_SNAPSHOT_H

#include "mir/Mir.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rs::mir::snapshot {

/// Bump on any wire-format change; readers reject other versions.
inline constexpr uint32_t SnapshotSchemaVersion = 1;

/// Serializes \p M with \p Fingerprint recorded in the header (use the
/// content fingerprint of the source the module was parsed from; 0 is
/// legal when the caller does not care).
std::string write(const Module &M, uint64_t Fingerprint);

/// Decodes a snapshot produced by write(). When \p ExpectFingerprint is
/// non-null the header fingerprint must match it exactly. A non-empty
/// \p AnchorPath re-anchors every source location at that file: snapshots
/// are keyed by content, so the same bytes may show up at another path
/// than the one they were parsed at. Returns nullopt on any defect; never
/// throws, never returns a partially-decoded module.
std::optional<Module> read(std::string_view Bytes,
                           const uint64_t *ExpectFingerprint = nullptr,
                           std::string_view AnchorPath = {});

/// The fingerprint recorded in a snapshot header, or nullopt if \p Bytes
/// is not even a structurally valid header (payload is NOT validated).
std::optional<uint64_t> peekFingerprint(std::string_view Bytes);

} // namespace rs::mir::snapshot

#endif // RUSTSIGHT_MIR_SNAPSHOT_H
