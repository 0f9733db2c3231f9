//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helper enumerating the places a statement or terminator touches,
/// used by the pointer-safety detectors to find dereferencing accesses.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_DETECTORS_PLACEUSES_H
#define RUSTSIGHT_DETECTORS_PLACEUSES_H

#include "mir/Mir.h"
#include "support/SmallVector.h"

namespace rs::detectors {

/// One touched place. Borrows (&p / &raw p) count as reads: creating a
/// reference into freed memory is already a bug the paper's detector flags.
struct PlaceUse {
  const mir::Place *P;
  bool IsWrite;
};

/// The places one statement or terminator touches; inline for the common
/// sizes, so collecting them allocates nothing.
using PlaceUses = SmallVector<PlaceUse, 8>;

/// Appends the places read or written by \p S (drop subjects excluded —
/// callers handle drops explicitly).
void collectUses(const mir::Statement &S, PlaceUses &Out);

/// Appends the places read or written by terminator \p T.
void collectUses(const mir::Terminator &T, PlaceUses &Out);

/// True if some use in \p Uses dereferences its place: the only points the
/// pointer-safety detectors check, so the only ones whose memory state they
/// need to read.
bool anyDerefUse(const PlaceUses &Uses);

} // namespace rs::detectors

#endif // RUSTSIGHT_DETECTORS_PLACEUSES_H
