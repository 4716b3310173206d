// Label interning. Every string function that appears as an edge label in
// any transformation graph is canonicalized to a dense LabelId, so that
// inverted-index keys, path comparison and group keys are integer
// operations. One interner lives per grouping run (typically per column or
// per structure group); LabelIds are not stable across interners.
//
// Ids are handed out in first-sight order. The lookup table is keyed by a
// hash of the function's fields (kind, constant bytes, each position's
// kind/k/direction/term, the affix class and k) and confirmed with
// StringFn::operator==, so the hash only decides where an id sits in the
// table, never which id a function gets.
#ifndef USTL_DSL_INTERNER_H_
#define USTL_DSL_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsl/string_function.h"

namespace ustl {

/// Dense identifier of an interned string function.
using LabelId = uint32_t;

/// Bidirectional StringFn <-> LabelId map. Not thread-safe.
class LabelInterner {
 public:
  LabelInterner() = default;
  LabelInterner(const LabelInterner&) = delete;
  LabelInterner& operator=(const LabelInterner&) = delete;

  /// Returns the id for `fn`, interning it on first sight.
  LabelId Intern(const StringFn& fn);

  /// Intern(StringFn::ConstantStr(value)) and
  /// Intern(StringFn::SubStr(left, right)), without building the StringFn
  /// unless the label is new. The graph builder's hot path.
  LabelId InternConstant(std::string_view value);
  LabelId InternSubStr(const PosFn& left, const PosFn& right);

  /// Looks up an id without interning; returns false if absent.
  bool Lookup(const StringFn& fn, LabelId* id) const;

  /// The function for an id. `id` must have been returned by Intern.
  const StringFn& Get(LabelId id) const;

  size_t size() const { return fns_.size(); }

 private:
  static constexpr LabelId kEmptySlot = UINT32_MAX;

  // The slot holding the id whose function satisfies `equal`, or the
  // empty slot where such an id would go.
  template <typename Equal>
  size_t Probe(uint64_t hash, const Equal& equal) const;
  // Returns the id in `slot`, or interns make() there when it is empty.
  template <typename Make>
  LabelId InternAt(size_t slot, uint64_t hash, const Make& make);
  // Doubles the table and re-seats every id by its kept hash.
  void Grow();

  std::vector<StringFn> fns_;    // by id
  std::vector<uint64_t> hashes_;  // by id
  // Open addressing with linear probing; the size is a power of two and
  // at least twice the number of ids.
  std::vector<LabelId> slots_ = std::vector<LabelId>(16, kEmptySlot);
};

/// A transformation path / program skeleton: the sequence of interned
/// labels along a root-to-sink path in a transformation graph. Two paths
/// are the same transformation iff their label sequences are equal
/// (footnote 3 in the paper).
using LabelPath = std::vector<LabelId>;

/// Renders a label path via the interner, for reports and debugging.
std::string PathToString(const LabelPath& path, const LabelInterner& interner);

}  // namespace ustl

#endif  // USTL_DSL_INTERNER_H_
