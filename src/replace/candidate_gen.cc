#include "replace/candidate_gen.h"

#include <algorithm>

#include "text/alignment.h"

namespace ustl {
namespace {

constexpr char kKeySep = '\x1f';

std::string PairKey(const std::string& lhs, const std::string& rhs) {
  std::string key = lhs;
  key.push_back(kKeySep);
  key += rhs;
  return key;
}

// Adds the occurrence of `lhs -> rhs` to the set, creating the pair on
// first sight. Duplicate occurrences are ignored.
void AddCandidate(const std::string& lhs, const std::string& rhs,
                  const Occurrence& occurrence, CandidateSet* set) {
  if (lhs.empty() || rhs.empty() || lhs == rhs) return;
  std::string key = PairKey(lhs, rhs);
  auto [it, inserted] = set->index.emplace(key, set->pairs.size());
  if (inserted) {
    set->pairs.push_back(StringPair{lhs, rhs});
    set->occurrences.emplace_back();
  }
  std::vector<Occurrence>& list = set->occurrences[it->second];
  if (std::find(list.begin(), list.end(), occurrence) == list.end()) {
    list.push_back(occurrence);
  }
}

}  // namespace

size_t CandidateSet::Find(const std::string& lhs,
                          const std::string& rhs) const {
  auto it = index.find(PairKey(lhs, rhs));
  return it == index.end() ? static_cast<size_t>(-1) : it->second;
}

void GenerateForCluster(const Column& column, size_t cluster,
                        const CandidateGenOptions& options,
                        CandidateSet* set) {
  const std::vector<std::string>& rows = column[cluster];
  for (size_t a = 0; a < rows.size(); ++a) {
    if (rows[a].size() > options.max_value_len) continue;
    for (size_t b = 0; b < rows.size(); ++b) {
      if (a == b) continue;
      if (rows[b].size() > options.max_value_len) continue;
      const std::string& va = rows[a];
      const std::string& vb = rows[b];
      if (va == vb) continue;
      // Direction va -> vb; the (b, a) iteration emits the reverse.
      if (options.full_value_pairs) {
        AddCandidate(va, vb,
                     Occurrence{cluster, a, 1, /*whole_value=*/true}, set);
      }
      if (options.token_level) {
        for (const AlignedSegment& seg : TokenLcsAlign(va, vb)) {
          AddCandidate(seg.lhs, seg.rhs,
                       Occurrence{cluster, a, seg.lhs_begin,
                                  /*whole_value=*/false},
                       set);
        }
      }
    }
  }
}

CandidateSet GenerateCandidates(const Column& column,
                                const CandidateGenOptions& options) {
  CandidateSet set;
  for (size_t c = 0; c < column.size(); ++c) {
    GenerateForCluster(column, c, options, &set);
  }
  return set;
}

}  // namespace ustl
