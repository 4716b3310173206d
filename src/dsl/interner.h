// Label interning. Every string function that appears as an edge label in
// any transformation graph is canonicalized to a dense LabelId, so that
// inverted-index keys, path comparison and group keys are integer
// operations. One interner lives per grouping run (typically per column or
// per structure group); LabelIds are not stable across interners.
//
// A label is stored as a fixed 12-byte record, not as a StringFn: its kind
// plus two 32-bit operands. A ConstantStr holds an id into the interner's
// pool of constant strings, a SubStr two ids into its pool of position
// functions (a constant term's literal is itself a string-pool id), and a
// Prefix/Suffix its class and k. Get builds the StringFn on demand, where
// a program is printed, parsed or evaluated; kind() answers the hot kind
// checks without building one.
//
// Label ids are handed out in first-sight order; the two pools number
// their entries separately and never move a label id. The label table and
// each pool are open-addressing tables of ids keyed by a hash of the
// record, so the hash only decides where an id sits in a table, never
// which id a record gets. Lookup only probes: it never adds to a pool.
#ifndef USTL_DSL_INTERNER_H_
#define USTL_DSL_INTERNER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/id_table.h"
#include "common/status.h"
#include "dsl/string_function.h"

namespace ustl {

/// Dense identifier of an interned string function.
using LabelId = uint32_t;

/// Bidirectional StringFn <-> LabelId map. Not thread-safe.
class LabelInterner {
 public:
  /// Id of a position function in the interner's position pool.
  using PosId = uint32_t;

  LabelInterner() = default;
  LabelInterner(const LabelInterner&) = delete;
  LabelInterner& operator=(const LabelInterner&) = delete;

  /// Returns the id for `fn`, interning it on first sight.
  LabelId Intern(const StringFn& fn);

  /// The graph builder's entry points: each interns from fields and views
  /// and builds no StringFn or PosFn. InternConstant(v) is
  /// Intern(StringFn::ConstantStr(v)); InternSubStr(l, r) is
  /// Intern(StringFn::SubStr(l', r')) for the positions l' and r' that the
  /// pool ids l and r stand for; InternAffix(kind, c, k) is
  /// Intern(StringFn::Prefix(Term::Regex(c), k)) or its Suffix twin.
  LabelId InternConstant(std::string_view value);
  LabelId InternSubStr(PosId left, PosId right);
  LabelId InternAffix(StringFn::Kind kind, CharClass regex_class, int k);

  /// Position pool entries: ConstPos(k), MatchPos(Term::Regex(c), k, dir)
  /// and MatchPos(Term::Constant(literal), k, dir); InternPos takes any
  /// PosFn.
  PosId InternConstPos(int k);
  PosId InternMatchPos(CharClass regex_class, int k, Dir dir);
  PosId InternMatchPos(std::string_view literal, int k, Dir dir);
  PosId InternPos(const PosFn& pos);

  /// Looks up an id without interning; returns false if absent.
  bool Lookup(const StringFn& fn, LabelId* id) const;

  /// The function for an id, built from its record. `id` must have been
  /// returned by an Intern call.
  StringFn Get(LabelId id) const;
  /// The kind of an id's function, without building it.
  StringFn::Kind kind(LabelId id) const {
    USTL_DCHECK(id < labels_.size());
    return labels_[id].kind;
  }

  size_t size() const { return labels_.size(); }

 private:
  // A label: ConstantStr (a = string id), SubStr (a, b = position ids) or
  // Prefix/Suffix (a = class, b = k).
  struct Label {
    StringFn::Kind kind;
    uint32_t a;
    uint32_t b;
    bool operator==(const Label& o) const {
      return kind == o.kind && a == o.a && b == o.b;
    }
  };
  static_assert(sizeof(Label) <= 16, "a label record stays within 16 bytes");

  // A position: ConstPos(k), or MatchPos over a regex class or over the
  // constant term whose literal is string `literal`. Unused fields are 0,
  // so equal positions have equal records.
  struct Pos {
    enum Tag : uint8_t { kConstPos = 0, kRegex = 1, kLiteral = 2 };
    Tag tag;
    Dir dir;
    CharClass regex_class;
    int32_t k;
    uint32_t literal;
    bool operator==(const Pos& o) const {
      return tag == o.tag && dir == o.dir && regex_class == o.regex_class &&
             k == o.k && literal == o.literal;
    }
  };

  // Open addressing with linear probing (common/id_table.h): a
  // power-of-two array of ids at least twice as long as the number of ids
  // in it.
  using Slots = std::vector<uint32_t>;

  static uint64_t HashPos(const Pos& pos);
  static uint64_t HashLabel(const Label& label);

  // The slot holding the entry's id, or the empty slot where it would go.
  size_t StringSlot(std::string_view value) const;
  size_t PosSlot(const Pos& pos) const;
  size_t LabelSlot(const Label& label) const;

  // Probe-only lookups: none of them adds to a pool.
  bool FindPos(const PosFn& pos, PosId* id) const;
  bool FindRecord(const StringFn& fn, Label* label) const;

  uint32_t InternString(std::string_view value);
  PosId InternPosRecord(const Pos& pos);
  LabelId InternLabel(const Label& label);

  std::string_view pool_string(uint32_t id) const;
  PosFn MakePos(PosId id) const;

  std::vector<Label> labels_;  // by LabelId
  Slots label_slots_ = Slots(16, kEmptyIdSlot);
  std::vector<Pos> positions_;  // by PosId
  Slots pos_slots_ = Slots(16, kEmptyIdSlot);
  // The constant strings back to back; string i ends at string_ends_[i]
  // and starts where string i - 1 ends.
  std::string string_bytes_;
  std::vector<uint32_t> string_ends_;
  Slots string_slots_ = Slots(16, kEmptyIdSlot);
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
