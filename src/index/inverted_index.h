// Inverted index over edge labels (Section 5.1). The posting list of a
// string function f holds every triple (graph, i, j) such that the edge
// e(i,j) of that graph carries label f. Intersecting lists joins adjacent
// edges: (G, a, b) from the current path list combines with (G, b, c) from
// the label list to give (G, a, c), so the intersection of the lists of
// f1 .. fk is exactly the set of spans where the path f1 (+) ... (+) fk
// matches.
//
// Postings are bit-packed into one 64-bit word (graph | start | end,
// most-significant first), so a PostingList is a flat cache-dense array
// whose numeric word order IS the canonical (graph, start, end) posting
// order. The hot-path join is ExtendInto: it writes into a caller-owned
// scratch list (no allocation in the steady state) and fuses the
// distinct-graph count and a content hash into the merge so callers never
// re-scan the output. Build is one serial count-and-fill pass over the
// graphs, in posting order.
#ifndef USTL_INDEX_INVERTED_INDEX_H_
#define USTL_INDEX_INVERTED_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/transformation_graph.h"

namespace ustl {

class ThreadPool;

/// One occurrence of a path: it spans nodes [start, end] of `graph`.
/// Packed as graph (32 bits) | start (16) | end (16); the field order
/// makes uint64 comparison equal to lexicographic (graph, start, end)
/// comparison. Node ids are 1 .. |t|+1, so targets are capped at
/// kMaxNode - 1 characters (enforced once per graph in Build).
class Posting {
 public:
  static constexpr GraphId kMaxGraph = 0xffffffffu;
  static constexpr int kMaxNode = 0xffff;

  Posting() = default;
  constexpr Posting(GraphId graph, int start, int end)
      : bits_((static_cast<uint64_t>(graph) << 32) |
              (static_cast<uint64_t>(start & kMaxNode) << 16) |
              static_cast<uint64_t>(end & kMaxNode)) {}

  constexpr GraphId graph() const { return static_cast<GraphId>(bits_ >> 32); }
  constexpr int start() const {
    return static_cast<int>((bits_ >> 16) & kMaxNode);
  }
  constexpr int end() const { return static_cast<int>(bits_ & kMaxNode); }

  /// The raw packed word; also the per-posting unit of the ExtendStats
  /// content hash.
  constexpr uint64_t bits() const { return bits_; }

  /// The adjacency-join product of two postings of the same graph: keeps
  /// a's graph and start, takes b's end. Caller guarantees
  /// a.graph() == b.graph() and a.end() == b.start().
  static constexpr Posting Join(Posting a, Posting b) {
    return FromBits((a.bits_ & ~static_cast<uint64_t>(kMaxNode)) |
                    (b.bits_ & static_cast<uint64_t>(kMaxNode)));
  }

  static constexpr Posting FromBits(uint64_t bits) {
    Posting p;
    p.bits_ = bits;
    return p;
  }

  constexpr bool operator==(const Posting& o) const { return bits_ == o.bits_; }
  constexpr bool operator!=(const Posting& o) const { return bits_ != o.bits_; }
  constexpr bool operator<(const Posting& o) const { return bits_ < o.bits_; }

 private:
  uint64_t bits_ = 0;
};

static_assert(sizeof(Posting) == sizeof(uint64_t),
              "postings must stay packed one-word");

/// Sorted by (graph, start, end) — equivalently by packed bits — unique.
using PostingList = std::vector<Posting>;

/// FNV-1a parameters of the posting content hash.
inline constexpr uint64_t kPostingHashSeed = 14695981039346656037ull;
inline constexpr uint64_t kPostingHashPrime = 1099511628211ull;

/// Byproducts of ExtendInto, computed inside the merge join at no extra
/// pass over the output: the number of distinct graphs in the result and
/// an order-dependent FNV-1a hash of its packed words. Equal lists always
/// hash equal, so the hash serves as the sibling-dedup key of pivot
/// search (backed by a full compare to rule out collisions).
struct ExtendStats {
  size_t distinct_graphs = 0;
  uint64_t hash = kPostingHashSeed;
};

/// Build options of an index: an empty stub. Postings are always stored
/// as the flat packed arrays above, and these names survive only because
/// perfbench/traced.cc still copies GroupingOptions::{index_codec,
/// block_postings} into IndexBuildOptions::{codec, block}. The stub goes
/// once the benchmark stops setting them.
enum class IndexCodec : uint8_t { kRaw = 0 };
struct BlockPostingsOptions {};
struct IndexBuildOptions {
  IndexCodec codec = IndexCodec::kRaw;
  BlockPostingsOptions block;
};

/// Immutable label -> posting-list map over a set of graphs.
class InvertedIndex {
 public:
  /// Indexes every (edge, label) pair of every graph, serially. Graph ids
  /// are the positions in `graphs`. `num_labels_hint` (e.g. the interner
  /// size) skips the pre-sizing scan when the caller already knows an
  /// upper bound on label ids; 0 means "scan for the maximum". The
  /// ThreadPool, shard count and IndexBuildOptions arguments are ignored;
  /// they stay until a benchmark change stops perfbench/traced.cc from
  /// passing them.
  static InvertedIndex Build(const std::vector<TransformationGraph>& graphs,
                             ThreadPool* = nullptr, size_t = 0,
                             size_t num_labels_hint = 0,
                             const IndexBuildOptions& = {});

  /// The posting list for `label`; empty if the label never occurs.
  const PostingList& Find(LabelId label) const;

  /// |I[label]|, used for the upper bounds of Section 6.2.
  size_t ListLength(LabelId label) const;

  /// Number of labels with non-empty lists.
  size_t NumLabels() const;

  /// Posting-data resident bytes (list headers plus packed words) and
  /// total postings.
  size_t MemoryBytes() const;
  size_t NumPostings() const;

  /// Adjacency join described above, written into the caller-owned `*out`
  /// (cleared first; its capacity is reused, so a scratch list makes
  /// repeated joins allocation-free in the steady state). `alive`
  /// (indexed by GraphId) filters dead graphs out of the result; pass
  /// nullptr to keep everything. `out` must alias neither input. The
  /// returned stats are fused into the join: no separate DistinctGraphs
  /// or hashing pass over `*out` is ever needed.
  static ExtendStats ExtendInto(const PostingList& current,
                                const PostingList& label_list,
                                const std::vector<char>* alive,
                                PostingList* out);

  /// Allocating convenience wrapper around ExtendInto for cold paths and
  /// tests.
  static PostingList Extend(const PostingList& current,
                            const PostingList& label_list,
                            const std::vector<char>* alive);

  /// Number of distinct graphs appearing in a sorted posting list. Hot
  /// callers get this for free from ExtendInto's fused stats.
  static size_t DistinctGraphs(const PostingList& list);

 private:
  static const PostingList kEmpty;
  std::vector<PostingList> lists_;  // indexed by LabelId
};

}  // namespace ustl

#endif  // USTL_INDEX_INVERTED_INDEX_H_
