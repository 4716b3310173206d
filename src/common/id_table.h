// Open-addressing tables of dense ids. A table is a power-of-two array of
// uint32_t ids, at least twice as long as the number of ids in it, probed
// linearly from a hash of the entry. The entries live elsewhere, in a
// vector indexed by id, and are compared field by field, so no key is
// built. Ids are handed out in first-sight order by the owner: the hash
// only decides where an id sits in the table, never which id an entry
// gets. LabelInterner keys its label table and pools this way, and
// CandidateSet its (lhs, rhs) pairs.
#ifndef USTL_COMMON_ID_TABLE_H_
#define USTL_COMMON_ID_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace ustl {

/// The slot value of an empty table entry.
inline constexpr uint32_t kEmptyIdSlot = UINT32_MAX;

inline constexpr uint64_t kIdHashSeed = 0x9e3779b97f4a7c15ULL;

/// One multiply-xorshift round (the murmur3 finalizer constant). The table
/// index is the low bits of the hash, and the shift folds the high half of
/// every field into them.
inline uint64_t MixHash(uint64_t hash, uint64_t value) {
  hash = (hash ^ value) * 0xff51afd7ed558ccdULL;
  return hash ^ (hash >> 32);
}

inline uint64_t HashBytes(std::string_view value) {
  return MixHash(kIdHashSeed, std::hash<std::string_view>{}(value));
}

/// The slot of `slots` holding the id that satisfies `equal`, or the empty
/// slot where such an id would go.
template <typename Equal>
size_t ProbeIdSlot(const std::vector<uint32_t>& slots, uint64_t hash,
                   const Equal& equal) {
  const size_t mask = slots.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const uint32_t id = slots[slot];
    if (id == kEmptyIdSlot || equal(id)) return slot;
  }
}

/// Seats the new `id` (ids 0 .. id - 1 are already seated) in its empty
/// `slot`. When that fills the table past half, doubles it and re-seats
/// ids 0 .. id by hash_of(id).
template <typename HashOf>
void SeatId(std::vector<uint32_t>* slots, size_t slot, uint32_t id,
            const HashOf& hash_of) {
  (*slots)[slot] = id;
  const size_t count = static_cast<size_t>(id) + 1;
  if (2 * count <= slots->size()) return;
  slots->assign(2 * slots->size(), kEmptyIdSlot);
  const size_t mask = slots->size() - 1;
  for (uint32_t other = 0; other < count; ++other) {
    size_t at = hash_of(other) & mask;
    while ((*slots)[at] != kEmptyIdSlot) at = (at + 1) & mask;
    (*slots)[at] = other;
  }
}

}  // namespace ustl

#endif  // USTL_COMMON_ID_TABLE_H_
