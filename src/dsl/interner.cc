#include "dsl/interner.h"

namespace ustl {

uint64_t LabelInterner::HashPos(const Pos& pos) {
  const uint64_t fields =
      pos.tag | (uint64_t{static_cast<uint8_t>(pos.dir)} << 8) |
      (uint64_t{static_cast<uint8_t>(pos.regex_class)} << 16) |
      (uint64_t{static_cast<uint32_t>(pos.k)} << 32);
  return MixHash(MixHash(kIdHashSeed, fields), pos.literal);
}

uint64_t LabelInterner::HashLabel(const Label& label) {
  return MixHash(MixHash(kIdHashSeed, static_cast<uint64_t>(label.kind)),
                 label.a | (uint64_t{label.b} << 32));
}

std::string_view LabelInterner::pool_string(uint32_t id) const {
  const uint32_t begin = id == 0 ? 0 : string_ends_[id - 1];
  return std::string_view(string_bytes_)
      .substr(begin, string_ends_[id] - begin);
}

size_t LabelInterner::StringSlot(std::string_view value) const {
  return ProbeIdSlot(string_slots_, HashBytes(value),
                     [&](uint32_t id) { return pool_string(id) == value; });
}

size_t LabelInterner::PosSlot(const Pos& pos) const {
  return ProbeIdSlot(pos_slots_, HashPos(pos),
                     [&](uint32_t id) { return positions_[id] == pos; });
}

size_t LabelInterner::LabelSlot(const Label& label) const {
  return ProbeIdSlot(label_slots_, HashLabel(label),
                     [&](uint32_t id) { return labels_[id] == label; });
}

uint32_t LabelInterner::InternString(std::string_view value) {
  const size_t slot = StringSlot(value);
  if (string_slots_[slot] != kEmptyIdSlot) return string_slots_[slot];
  USTL_CHECK(string_bytes_.size() + value.size() <= UINT32_MAX);
  const uint32_t id = static_cast<uint32_t>(string_ends_.size());
  string_bytes_.append(value);
  string_ends_.push_back(static_cast<uint32_t>(string_bytes_.size()));
  SeatId(&string_slots_, slot, id,
         [this](uint32_t other) { return HashBytes(pool_string(other)); });
  return id;
}

LabelInterner::PosId LabelInterner::InternPosRecord(const Pos& pos) {
  const size_t slot = PosSlot(pos);
  if (pos_slots_[slot] != kEmptyIdSlot) return pos_slots_[slot];
  const PosId id = static_cast<PosId>(positions_.size());
  positions_.push_back(pos);
  SeatId(&pos_slots_, slot, id,
         [this](uint32_t other) { return HashPos(positions_[other]); });
  return id;
}

LabelId LabelInterner::InternLabel(const Label& label) {
  const size_t slot = LabelSlot(label);
  if (label_slots_[slot] != kEmptyIdSlot) return label_slots_[slot];
  const LabelId id = static_cast<LabelId>(labels_.size());
  labels_.push_back(label);
  SeatId(&label_slots_, slot, id,
         [this](uint32_t other) { return HashLabel(labels_[other]); });
  return id;
}

LabelInterner::PosId LabelInterner::InternConstPos(int k) {
  return InternPosRecord(
      Pos{Pos::kConstPos, Dir::kBegin, CharClass::kDigit, k, 0});
}

LabelInterner::PosId LabelInterner::InternMatchPos(CharClass regex_class,
                                                   int k, Dir dir) {
  return InternPosRecord(Pos{Pos::kRegex, dir, regex_class, k, 0});
}

LabelInterner::PosId LabelInterner::InternMatchPos(std::string_view literal,
                                                   int k, Dir dir) {
  return InternPosRecord(
      Pos{Pos::kLiteral, dir, CharClass::kDigit, k, InternString(literal)});
}

LabelInterner::PosId LabelInterner::InternPos(const PosFn& pos) {
  if (pos.is_const_pos()) return InternConstPos(pos.k());
  const Term& term = pos.term();
  if (term.is_regex()) {
    return InternMatchPos(term.char_class(), pos.k(), pos.dir());
  }
  return InternMatchPos(term.literal(), pos.k(), pos.dir());
}

LabelId LabelInterner::InternConstant(std::string_view value) {
  return InternLabel(
      Label{StringFn::Kind::kConstantStr, InternString(value), 0});
}

LabelId LabelInterner::InternSubStr(PosId left, PosId right) {
  return InternLabel(Label{StringFn::Kind::kSubStr, left, right});
}

LabelId LabelInterner::InternAffix(StringFn::Kind kind, CharClass regex_class,
                                   int k) {
  return InternLabel(Label{kind, static_cast<uint32_t>(regex_class),
                           static_cast<uint32_t>(k)});
}

LabelId LabelInterner::Intern(const StringFn& fn) {
  switch (fn.kind()) {
    case StringFn::Kind::kConstantStr:
      return InternConstant(fn.constant());
    case StringFn::Kind::kSubStr:
      return InternSubStr(InternPos(fn.left()), InternPos(fn.right()));
    case StringFn::Kind::kPrefix:
    case StringFn::Kind::kSuffix:
      break;
  }
  // Affix terms are always regex terms.
  return InternAffix(fn.kind(), fn.term().char_class(), fn.k());
}

bool LabelInterner::FindPos(const PosFn& pos, PosId* id) const {
  Pos record{Pos::kConstPos, Dir::kBegin, CharClass::kDigit, pos.k(), 0};
  if (pos.is_match_pos()) {
    const Term& term = pos.term();
    record.dir = pos.dir();
    if (term.is_regex()) {
      record.tag = Pos::kRegex;
      record.regex_class = term.char_class();
    } else {
      const size_t literal = StringSlot(term.literal());
      if (string_slots_[literal] == kEmptyIdSlot) return false;
      record.tag = Pos::kLiteral;
      record.literal = string_slots_[literal];
    }
  }
  const size_t slot = PosSlot(record);
  *id = pos_slots_[slot];
  return *id != kEmptyIdSlot;
}

bool LabelInterner::FindRecord(const StringFn& fn, Label* label) const {
  *label = Label{fn.kind(), 0, 0};
  switch (fn.kind()) {
    case StringFn::Kind::kConstantStr:
      label->a = string_slots_[StringSlot(fn.constant())];
      return label->a != kEmptyIdSlot;
    case StringFn::Kind::kSubStr:
      return FindPos(fn.left(), &label->a) && FindPos(fn.right(), &label->b);
    case StringFn::Kind::kPrefix:
    case StringFn::Kind::kSuffix:
      break;
  }
  label->a = static_cast<uint32_t>(fn.term().char_class());
  label->b = static_cast<uint32_t>(fn.k());
  return true;
}

bool LabelInterner::Lookup(const StringFn& fn, LabelId* id) const {
  Label label;
  if (!FindRecord(fn, &label)) return false;
  const LabelId found = label_slots_[LabelSlot(label)];
  if (found == kEmptyIdSlot) return false;
  *id = found;
  return true;
}

PosFn LabelInterner::MakePos(PosId id) const {
  const Pos& pos = positions_[id];
  switch (pos.tag) {
    case Pos::kConstPos:
      return PosFn::ConstPos(pos.k);
    case Pos::kRegex:
      return PosFn::MatchPos(Term::Regex(pos.regex_class), pos.k, pos.dir);
    case Pos::kLiteral:
      break;
  }
  return PosFn::MatchPos(Term::Constant(std::string(pool_string(pos.literal))),
                         pos.k, pos.dir);
}

StringFn LabelInterner::Get(LabelId id) const {
  USTL_CHECK(id < labels_.size());
  const Label& label = labels_[id];
  switch (label.kind) {
    case StringFn::Kind::kConstantStr:
      return StringFn::ConstantStr(std::string(pool_string(label.a)));
    case StringFn::Kind::kSubStr:
      return StringFn::SubStr(MakePos(label.a), MakePos(label.b));
    case StringFn::Kind::kPrefix:
      return StringFn::Prefix(Term::Regex(static_cast<CharClass>(label.a)),
                              static_cast<int>(label.b));
    case StringFn::Kind::kSuffix:
      break;
  }
  return StringFn::Suffix(Term::Regex(static_cast<CharClass>(label.a)),
                          static_cast<int>(label.b));
}

std::string PathToString(const LabelPath& path,
                         const LabelInterner& interner) {
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += " (+) ";
    out += interner.Get(path[i]).ToString();
  }
  return out;
}

}  // namespace ustl
