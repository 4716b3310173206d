#include "replace/candidate_gen.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "text/alignment.h"

namespace ustl {
namespace {

// The working buffers of a cluster pass. One set lives per thread and
// keeps its capacity across calls.
struct ClusterScratch {
  // Row r's whitespace tokens are tokens[token_begin[r], token_begin[r + 1]).
  std::vector<TokenSpan> tokens;
  std::vector<uint32_t> token_begin;
  std::vector<SegmentSpan> segments;  // of the ordered pair being aligned
};

ClusterScratch& ThreadScratch() {
  thread_local ClusterScratch scratch;
  return scratch;
}

uint64_t HashPair(std::string_view lhs, std::string_view rhs) {
  return MixHash(HashBytes(lhs), std::hash<std::string_view>{}(rhs));
}

// The slot of `set` holding the id of `lhs -> rhs`, or the empty slot
// where it would go.
size_t PairSlot(const CandidateSet& set, std::string_view lhs,
                std::string_view rhs) {
  return ProbeIdSlot(set.slots, HashPair(lhs, rhs), [&](uint32_t id) {
    const StringPair& pair = set.pairs[id];
    return pair.lhs == lhs && pair.rhs == rhs;
  });
}

// Adds the occurrence of `lhs -> rhs` to the set, creating the pair on
// first sight. Duplicate occurrences are ignored: the current pass's
// entries of the occurrence's cluster form the tail of the list, so only
// that tail is scanned.
void AddCandidate(std::string_view lhs, std::string_view rhs,
                  const Occurrence& occurrence, CandidateSet* set) {
  if (lhs.empty() || rhs.empty() || lhs == rhs) return;
  const size_t slot = PairSlot(*set, lhs, rhs);
  uint32_t id = set->slots[slot];
  if (id == kEmptyIdSlot) {
    USTL_CHECK(set->pairs.size() < kEmptyIdSlot);
    id = static_cast<uint32_t>(set->pairs.size());
    set->pairs.push_back(StringPair{std::string(lhs), std::string(rhs)});
    set->occurrences.emplace_back();
    SeatId(&set->slots, slot, id, [set](uint32_t other) {
      const StringPair& pair = set->pairs[other];
      return HashPair(pair.lhs, pair.rhs);
    });
  }
  std::vector<Occurrence>& list = set->occurrences[id];
  size_t tail = list.size();
  for (; tail > 0 && list[tail - 1].cluster == occurrence.cluster; --tail) {
    if (list[tail - 1] == occurrence) return;
  }
  USTL_DCHECK(std::none_of(list.begin(), list.begin() + tail,
                           [&](const Occurrence& other) {
                             return other.cluster == occurrence.cluster;
                           }));
  list.push_back(occurrence);
}

}  // namespace

size_t CandidateSet::Find(std::string_view lhs, std::string_view rhs) const {
  const uint32_t id = slots[PairSlot(*this, lhs, rhs)];
  return id == kEmptyIdSlot ? static_cast<size_t>(-1) : id;
}

void GenerateForCluster(const Column& column, size_t cluster,
                        const CandidateGenOptions& options,
                        CandidateSet* set) {
  const std::vector<std::string>& rows = column[cluster];
  ClusterScratch& scratch = ThreadScratch();
  // Tokenize each cell once; every ordered pair below aligns views.
  scratch.tokens.clear();
  scratch.token_begin.clear();
  if (options.token_level) {
    for (const std::string& row : rows) {
      scratch.token_begin.push_back(
          static_cast<uint32_t>(scratch.tokens.size()));
      if (row.size() <= options.max_value_len) {
        AppendTokenSpans(row, &scratch.tokens);
      }
    }
    scratch.token_begin.push_back(
        static_cast<uint32_t>(scratch.tokens.size()));
  }
  auto tokenized = [&scratch, &rows](size_t r) {
    const uint32_t begin = scratch.token_begin[r];
    return TokenizedValue{rows[r], scratch.tokens.data() + begin,
                          scratch.token_begin[r + 1] - begin};
  };
  for (size_t a = 0; a < rows.size(); ++a) {
    if (rows[a].size() > options.max_value_len) continue;
    for (size_t b = 0; b < rows.size(); ++b) {
      if (a == b) continue;
      if (rows[b].size() > options.max_value_len) continue;
      const std::string_view va = rows[a];
      const std::string_view vb = rows[b];
      if (va == vb) continue;
      // Direction va -> vb; the (b, a) iteration emits the reverse.
      if (options.full_value_pairs) {
        AddCandidate(va, vb,
                     Occurrence{cluster, a, 1, /*whole_value=*/true}, set);
      }
      if (options.token_level) {
        AlignTokenSpans(tokenized(a), tokenized(b), &scratch.segments);
        for (const SegmentSpan& seg : scratch.segments) {
          AddCandidate(
              va.substr(seg.lhs_begin, seg.lhs_end - seg.lhs_begin),
              vb.substr(seg.rhs_begin, seg.rhs_end - seg.rhs_begin),
              Occurrence{cluster, a, static_cast<int>(seg.lhs_begin) + 1,
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
