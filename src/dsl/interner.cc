#include "dsl/interner.h"

#include <functional>

#include "common/status.h"

namespace ustl {
namespace {

// One multiply-xorshift round (the murmur3 finalizer constant). The table
// index is the low bits of the hash, and the shift folds the high half of
// every field into them.
uint64_t Mix(uint64_t hash, uint64_t value) {
  hash = (hash ^ value) * 0xff51afd7ed558ccdULL;
  return hash ^ (hash >> 32);
}

uint64_t MixBytes(uint64_t hash, std::string_view bytes) {
  return Mix(hash, std::hash<std::string_view>{}(bytes));
}

// Packs the small fields of a function or position into one word: kind
// tags in the low byte, the class in the next, k in the high half.
uint64_t Pack(uint64_t tags, CharClass c, int k) {
  return tags | (uint64_t{static_cast<uint8_t>(c)} << 8) |
         (uint64_t{static_cast<uint32_t>(k)} << 32);
}

uint64_t MixPosFn(uint64_t hash, const PosFn& pos) {
  if (pos.is_const_pos()) {
    return Mix(hash, Pack(0, CharClass::kDigit, pos.k()));
  }
  const Term& term = pos.term();
  const uint64_t tags = 1 | (pos.dir() == Dir::kEnd ? 2 : 0) |
                        (term.is_regex() ? 4 : 0);
  hash = Mix(hash, Pack(tags, term.char_class(), pos.k()));
  return term.is_regex() ? hash : MixBytes(hash, term.literal());
}

uint64_t KindSeed(StringFn::Kind kind) {
  return Mix(0x9e3779b97f4a7c15ULL, static_cast<uint64_t>(kind));
}

uint64_t HashConstant(std::string_view value) {
  return MixBytes(KindSeed(StringFn::Kind::kConstantStr), value);
}

uint64_t HashSubStr(const PosFn& left, const PosFn& right) {
  return MixPosFn(MixPosFn(KindSeed(StringFn::Kind::kSubStr), left), right);
}

uint64_t HashStringFn(const StringFn& fn) {
  switch (fn.kind()) {
    case StringFn::Kind::kConstantStr:
      return HashConstant(fn.constant());
    case StringFn::Kind::kSubStr:
      return HashSubStr(fn.left(), fn.right());
    case StringFn::Kind::kPrefix:
    case StringFn::Kind::kSuffix:
      break;
  }
  // Affix terms are always regex terms.
  return Mix(KindSeed(fn.kind()), Pack(0, fn.term().char_class(), fn.k()));
}

}  // namespace

template <typename Equal>
size_t LabelInterner::Probe(uint64_t hash, const Equal& equal) const {
  const size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const LabelId id = slots_[slot];
    if (id == kEmptySlot || (hashes_[id] == hash && equal(fns_[id]))) {
      return slot;
    }
  }
}

template <typename Make>
LabelId LabelInterner::InternAt(size_t slot, uint64_t hash,
                                const Make& make) {
  if (slots_[slot] != kEmptySlot) return slots_[slot];
  const LabelId id = static_cast<LabelId>(fns_.size());
  slots_[slot] = id;
  fns_.push_back(make());
  hashes_.push_back(hash);
  if (2 * fns_.size() > slots_.size()) Grow();
  return id;
}

void LabelInterner::Grow() {
  slots_.assign(2 * slots_.size(), kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (LabelId id = 0; id < fns_.size(); ++id) {
    size_t slot = hashes_[id] & mask;
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

LabelId LabelInterner::Intern(const StringFn& fn) {
  const uint64_t hash = HashStringFn(fn);
  const size_t slot =
      Probe(hash, [&fn](const StringFn& other) { return other == fn; });
  return InternAt(slot, hash, [&fn] { return fn; });
}

LabelId LabelInterner::InternConstant(std::string_view value) {
  const uint64_t hash = HashConstant(value);
  const size_t slot = Probe(hash, [value](const StringFn& fn) {
    return fn.kind() == StringFn::Kind::kConstantStr &&
           fn.constant() == value;
  });
  return InternAt(slot, hash, [value] {
    return StringFn::ConstantStr(std::string(value));
  });
}

LabelId LabelInterner::InternSubStr(const PosFn& left, const PosFn& right) {
  const uint64_t hash = HashSubStr(left, right);
  const size_t slot = Probe(hash, [&left, &right](const StringFn& fn) {
    return fn.kind() == StringFn::Kind::kSubStr && fn.left() == left &&
           fn.right() == right;
  });
  return InternAt(slot, hash, [&left, &right] {
    return StringFn::SubStr(left, right);
  });
}

bool LabelInterner::Lookup(const StringFn& fn, LabelId* id) const {
  const size_t slot = Probe(
      HashStringFn(fn), [&fn](const StringFn& other) { return other == fn; });
  if (slots_[slot] == kEmptySlot) return false;
  *id = slots_[slot];
  return true;
}

const StringFn& LabelInterner::Get(LabelId id) const {
  USTL_CHECK(id < fns_.size());
  return fns_[id];
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
