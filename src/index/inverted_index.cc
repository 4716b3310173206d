#include "index/inverted_index.h"

#include <algorithm>

#include "common/status.h"

namespace ustl {

const PostingList InvertedIndex::kEmpty;

namespace {

// Calls visit(label, posting) for every label of every edge, in posting
// order: graph asc, from asc, to asc.
template <typename Visit>
void ForEachLabel(const std::vector<TransformationGraph>& graphs,
                  Visit&& visit) {
  for (GraphId g = 0; g < graphs.size(); ++g) {
    const TransformationGraph& graph = graphs[g];
    for (int from = 1; from <= graph.num_nodes(); ++from) {
      for (const GraphEdge& edge : graph.edges_from(from)) {
        for (LabelId label : edge.labels) {
          visit(label, Posting(g, from, edge.to));
        }
      }
    }
  }
}

}  // namespace

InvertedIndex InvertedIndex::Build(
    const std::vector<TransformationGraph>& graphs, ThreadPool*, size_t,
    size_t num_labels_hint, const IndexBuildOptions&) {
  InvertedIndex index;
  // Field-width guards of the packed layout, kept in release builds
  // because the limits are input-dependent: graph ids fit 32 bits here,
  // and node ids 16 (every graph checks that when it is built).
  USTL_CHECK(graphs.size() <= static_cast<size_t>(Posting::kMaxGraph) + 1);

  // lists_ is sized once: from the interner when the caller knows it,
  // else from one scan for the largest label.
  size_t num_labels = num_labels_hint;
  if (num_labels == 0) {
    ForEachLabel(graphs, [&](LabelId label, Posting) {
      num_labels = std::max(num_labels, static_cast<size_t>(label) + 1);
    });
  }
  if (num_labels == 0) return index;

  // A count pass sizes every list exactly, so the fill pass never
  // reallocates.
  std::vector<size_t> counts(num_labels, 0);
  ForEachLabel(graphs, [&](LabelId label, Posting) {
    // A hint below the real maximum would silently drop every posting of
    // the labels past it; catch that contract break in debug builds.
    // Release builds skip such a label rather than write past lists_.
    USTL_DCHECK(static_cast<size_t>(label) < num_labels);
    if (label < num_labels) ++counts[label];
  });
  index.lists_.resize(num_labels);
  for (size_t label = 0; label < num_labels; ++label) {
    index.lists_[label].reserve(counts[label]);
  }
  ForEachLabel(graphs, [&](LabelId label, Posting posting) {
    if (label < num_labels) index.lists_[label].push_back(posting);
  });

  // Canonicalize the layout: trailing empty lists (possible when the hint
  // over-estimates the largest used label) are trimmed, so hint and scan
  // paths produce identical indexes.
  while (!index.lists_.empty() && index.lists_.back().empty()) {
    index.lists_.pop_back();
  }

  // The fill visits postings in posting order, so no per-list sort is
  // needed. Debug builds assert it — the scan is O(total postings), so it
  // stays out of release builds.
  for (const PostingList& list : index.lists_) {
    USTL_DCHECK(std::is_sorted(list.begin(), list.end()));
    (void)list;
  }
  return index;
}

const PostingList& InvertedIndex::Find(LabelId label) const {
  if (label >= lists_.size()) return kEmpty;
  return lists_[label];
}

size_t InvertedIndex::ListLength(LabelId label) const {
  return label < lists_.size() ? lists_[label].size() : 0;
}

size_t InvertedIndex::NumLabels() const {
  size_t count = 0;
  for (const PostingList& list : lists_) {
    if (!list.empty()) ++count;
  }
  return count;
}

size_t InvertedIndex::MemoryBytes() const {
  size_t bytes = lists_.size() * sizeof(PostingList);
  for (const PostingList& list : lists_) {
    bytes += list.size() * sizeof(Posting);
  }
  return bytes;
}

size_t InvertedIndex::NumPostings() const {
  size_t count = 0;
  for (const PostingList& list : lists_) count += list.size();
  return count;
}

namespace {

// First index >= i whose posting's graph id is >= g (galloping: doubling
// probe then binary search). Keeps the merge join linear on balanced
// inputs and logarithmic when one list is much shorter than the other —
// the common shape once sampling or deep paths shrink the current list.
size_t GallopTo(const Posting* list, size_t n, size_t i, GraphId g) {
  if (i >= n || list[i].graph() >= g) return i;
  size_t lo = i;  // invariant: list[lo].graph() < g
  size_t step = 1;
  size_t hi = i + step;
  while (hi < n && list[hi].graph() < g) {
    lo = hi;
    step <<= 1;
    hi = lo + step;
  }
  if (hi > n) hi = n;
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (list[mid].graph() < g) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

}  // namespace

ExtendStats InvertedIndex::ExtendInto(const PostingList& current,
                                      const PostingList& label_list,
                                      const std::vector<char>* alive,
                                      PostingList* out) {
  out->clear();
  ExtendStats stats;
  const Posting* span = label_list.data();
  const size_t n = label_list.size();
  // Merge join on graph id; within one graph, pair (a, b) x (b, c).
  size_t i = 0;
  size_t j = 0;
  while (i < current.size() && j < n) {
    const GraphId gi = current[i].graph();
    const GraphId gj = span[j].graph();
    if (gi < gj) {
      i = GallopTo(current.data(), current.size(), i, gj);
      continue;
    }
    if (gj < gi) {
      j = GallopTo(span, n, j, gi);
      continue;
    }
    if (alive != nullptr && !(*alive)[gi]) {
      while (i < current.size() && current[i].graph() == gi) ++i;
      while (j < n && span[j].graph() == gi) ++j;
      continue;
    }
    size_t i_end = i;
    while (i_end < current.size() && current[i_end].graph() == gi) ++i_end;
    size_t j_end = j;
    while (j_end < n && span[j_end].graph() == gi) ++j_end;
    // Both runs are small in practice; a nested loop keeps this simple and
    // cache-friendly.
    const size_t run_begin = out->size();
    for (size_t a = i; a < i_end; ++a) {
      for (size_t b = j; b < j_end; ++b) {
        if (current[a].end() == span[b].start()) {
          out->push_back(Posting::Join(current[a], span[b]));
        }
      }
    }
    if (out->size() > run_begin) {
      // Graph runs are emitted in ascending graph order, so sorting and
      // deduplicating each run locally (runs are tiny) leaves the whole
      // list sorted + unique — no full-list sort pass. Distinct count and
      // content hash fold in here, while the run is cache-hot.
      if (out->size() - run_begin > 1) {
        std::sort(out->begin() + run_begin, out->end());
        out->erase(std::unique(out->begin() + run_begin, out->end()),
                   out->end());
      }
      ++stats.distinct_graphs;
      for (size_t k = run_begin; k < out->size(); ++k) {
        stats.hash ^= (*out)[k].bits();
        stats.hash *= kPostingHashPrime;
      }
    }
    i = i_end;
    j = j_end;
  }
  return stats;
}

PostingList InvertedIndex::Extend(const PostingList& current,
                                  const PostingList& label_list,
                                  const std::vector<char>* alive) {
  PostingList out;
  ExtendInto(current, label_list, alive, &out);
  return out;
}

size_t InvertedIndex::DistinctGraphs(const PostingList& list) {
  size_t count = 0;
  GraphId prev = 0;
  bool first = true;
  for (const Posting& p : list) {
    if (first || p.graph() != prev) {
      ++count;
      prev = p.graph();
      first = false;
    }
  }
  return count;
}

}  // namespace ustl
