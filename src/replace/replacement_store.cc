#include "replace/replacement_store.h"

#include <algorithm>

#include "common/status.h"

namespace ustl {

ReplacementStore::ReplacementStore(Column column,
                                   const CandidateGenOptions& options)
    : column_(std::move(column)), options_(options) {
  set_ = GenerateCandidates(column_, options_);
}

size_t ReplacementStore::ApplyDirected(
    const std::string& lhs, const std::string& rhs,
    const std::vector<Occurrence>& occurrences) {
  // Copy and group by cell: RefreshCluster below mutates occurrence
  // lists, and per-cell handling is what keeps one Apply call from
  // editing a cell twice (a whole-value rewrite subsumes any token
  // occurrence in the same cell; "9" -> "9th" must not fire again on the
  // prefix of the freshly written "9th").
  std::vector<Occurrence> pending = occurrences;
  std::sort(pending.begin(), pending.end());
  std::vector<size_t> touched;
  size_t edits = 0;
  size_t i = 0;
  while (i < pending.size()) {
    const size_t cluster = pending[i].cluster;
    const size_t row = pending[i].row;
    size_t cell_end = i;
    bool whole = false;
    while (cell_end < pending.size() && pending[cell_end].cluster == cluster &&
           pending[cell_end].row == row) {
      whole |= pending[cell_end].whole_value;
      ++cell_end;
    }
    std::string& cell = column_[cluster][row];
    size_t cell_edits = 0;
    if (whole) {
      if (cell == lhs) {
        cell = rhs;
        cell_edits = 1;
      }
      // Token occurrences in the same cell describe the same rewrite at a
      // finer grain; after the whole-value rewrite (or a stale mismatch)
      // they must not fire.
    } else {
      // Right-to-left keeps earlier recorded offsets valid as edits at
      // later offsets change the cell length. Offsets are strict: a span
      // that no longer holds lhs is stale and skipped.
      for (size_t j = cell_end; j-- > i;) {
        const size_t offset = static_cast<size_t>(pending[j].begin) - 1;
        if (offset + lhs.size() <= cell.size() &&
            cell.compare(offset, lhs.size(), lhs) == 0) {
          cell.replace(offset, lhs.size(), rhs);
          ++cell_edits;
        }
      }
    }
    if (cell_edits > 0 &&
        std::find(touched.begin(), touched.end(), cluster) ==
            touched.end()) {
      touched.push_back(cluster);
    }
    edits += cell_edits;
    i = cell_end;
  }
  for (size_t cluster : touched) RefreshCluster(cluster);
  return edits;
}

size_t ReplacementStore::Apply(size_t index) {
  USTL_CHECK(index < set_.pairs.size());
  const StringPair pair = set_.pairs[index];  // copy: lists mutate below
  return ApplyDirected(pair.lhs, pair.rhs, set_.occurrences[index]);
}

size_t ReplacementStore::ApplyReverse(size_t index) {
  USTL_CHECK(index < set_.pairs.size());
  const StringPair pair = set_.pairs[index];
  const size_t mirror = set_.Find(pair.rhs, pair.lhs);
  if (mirror == static_cast<size_t>(-1)) return 0;
  return ApplyDirected(pair.rhs, pair.lhs, set_.occurrences[mirror]);
}

void ReplacementStore::RefreshCluster(size_t cluster) {
  // Drop every stale occurrence that points into this cluster (Section 7.1
  // removes entries whose value changed)...
  for (std::vector<Occurrence>& list : set_.occurrences) {
    list.erase(std::remove_if(list.begin(), list.end(),
                              [cluster](const Occurrence& occ) {
                                return occ.cluster == cluster;
                              }),
               list.end());
  }
  // ... then re-derive the cluster's candidates; new pairs the edited
  // values form are appended, existing pairs gain the migrated entries.
  GenerateForCluster(column_, cluster, options_, &set_);
}

}  // namespace ustl
