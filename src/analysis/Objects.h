//===----------------------------------------------------------------------===//
//
// Part of RustSight, a reproduction of "Understanding Memory and Thread
// Safety Practices and Issues in Real-World Rust Programs" (PLDI 2020).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract-object model used by the points-to and memory-state
/// analyses. Each function gets a dense table of abstract objects:
///
///   - one "unknown" object (id 0) standing for anything unmodeled,
///   - one object per local (the local's own storage),
///   - one object per pointer-typed parameter's pointee,
///   - one object per call site that may return a fresh heap allocation.
///
/// Ids are dense in that order, so the kind of an object is a range test;
/// the table is one vector holding both directions of the parameter and
/// call-site mappings.
///
//===----------------------------------------------------------------------===//

#ifndef RUSTSIGHT_ANALYSIS_OBJECTS_H
#define RUSTSIGHT_ANALYSIS_OBJECTS_H

#include "mir/Intrinsics.h"
#include "mir/Mir.h"

#include <string>
#include <vector>

namespace rs::analysis {

/// Dense id of an abstract object within one function's ObjectTable.
using ObjId = unsigned;

/// Enumerates the abstract objects of one function.
class ObjectTable {
public:
  explicit ObjectTable(const mir::Function &F);

  unsigned numObjects() const { return Count; }

  /// The "anything" object: loads through untracked memory yield this.
  ObjId unknown() const { return 0; }

  /// The object modelling local \p L's own storage.
  ObjId localObject(mir::LocalId L) const { return 1 + L; }

  /// True if \p O is a local's storage object; if so sets \p L.
  bool isLocalObject(ObjId O, mir::LocalId &L) const;

  /// The object a pointer-typed parameter points to, or ~0u if the
  /// parameter has no pointee object.
  ObjId paramPointee(mir::LocalId Param) const;

  /// True if \p O is some parameter's pointee; if so sets \p Param.
  bool isParamPointee(ObjId O, mir::LocalId &Param) const;

  /// The heap object allocated by the call terminator of block \p B, or
  /// ~0u if that terminator does not allocate.
  ObjId heapObject(mir::BlockId B) const;

  /// True if \p O is a heap object; if so sets \p AllocBlock to the
  /// allocating call's block.
  bool isHeapObject(ObjId O, mir::BlockId &AllocBlock) const;

  /// Human-readable name for diagnostics ("_3", "*_1", "heap@bb2").
  std::string name(ObjId O) const;

private:
  static constexpr ObjId None = ~0u;

  const mir::Function &Fn;
  unsigned Count = 0;
  /// First parameter-pointee object; the heap objects start at FirstHeap.
  ObjId FirstPointee = 0, FirstHeap = 0;
  /// [0, NumArgs]: pointee object by parameter id (None if it has none);
  /// then one heap object (or None) per block; then, from OwnersAt, the
  /// parameter or block owning each object from FirstPointee on.
  std::vector<uint32_t> Table;
  size_t OwnersAt = 0;
};

/// True if a call returning into a destination may produce a fresh heap
/// allocation the analysis should model (Box::new, alloc, Arc::new, and
/// opaque calls).
bool callMayAllocate(const mir::Terminator &T);

/// Maps an abstract object back to the parameter that roots it: a pointer
/// parameter's pointee, or a by-value parameter's own object. Returns 0
/// (never a parameter id) when the object is not parameter-rooted.
mir::LocalId paramRootOfObject(const mir::Function &F,
                               const ObjectTable &Objects, ObjId O);

/// True if dropping a value of type \p Ty may run destructors (Box, Vec,
/// String, structs declared ": Drop", or structs containing such a field).
bool typeNeedsDrop(const mir::Type *Ty, const mir::Module &M);

/// True if dropping a value of type \p Ty destroys the objects it points to
/// (Box and structs declared ": Drop").
bool typeOwnsPointees(const mir::Type *Ty, const mir::Module &M);

} // namespace rs::analysis

#endif // RUSTSIGHT_ANALYSIS_OBJECTS_H
