// Transformation graph construction (Appendix C, Algorithm 8), extended
// with the affix labels of Appendix D and the static orders of Appendix E.
// Runs in O(|s|^2 |t|^2) time; the options bound the label explosion for
// long values.
//
// Build reads s and t into class tokens in one scan each, interns each
// candidate position of s once into the interner's position pool, and
// interns SubStr labels from pairs of those pool ids. It collects the
// graph's (from, to, label) list and fills the graph from it once. Its
// working buffers live per thread and keep their capacity across calls,
// so a warm builder allocates only the graph it returns.
#ifndef USTL_GRAPH_GRAPH_BUILDER_H_
#define USTL_GRAPH_GRAPH_BUILDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "common/status.h"
#include "dsl/interner.h"
#include "graph/term_scorer.h"
#include "graph/transformation_graph.h"

namespace ustl {

/// Knobs for graph construction. Defaults reproduce the paper's
/// configuration (affix extension on). The static order of position
/// functions (Section 7.4: at each position only the best tier available,
/// regex MatchPos > constant-term MatchPos > ConstPos) and ConstantStr and
/// SubStr labels on edges aligned with t's class tokens are not knobs:
/// Build always works that way.
struct GraphBuilderOptions {
  /// Adds Prefix/Suffix labels (Appendix D). Figure 10 ablates this.
  bool enable_affix = true;
  /// Values longer than these get a trivial graph (single full-width
  /// ConstantStr edge) instead of a quadratic label set.
  int max_input_len = 96;
  int max_output_len = 64;
  /// Per-edge cap on SubStr labels; deterministic prefix of the generation
  /// order is kept, so analogous edges in different graphs keep analogous
  /// labels.
  int max_substr_labels_per_edge = 32;
  /// Optional Appendix-E scorer: enables constant-term MatchPos positions
  /// (per position of s, the best-scoring class token of s). May be null.
  const TermScorer* scorer = nullptr;
};

/// Builds transformation graphs, interning labels into a shared interner.
/// Thread-compatible: const after construction except for the interner,
/// and Build's working buffers are per thread.
class GraphBuilder {
 public:
  GraphBuilder(GraphBuilderOptions options, LabelInterner* interner);

  /// Builds the graph for the replacement s -> t. `t` must be non-empty and
  /// `s` must differ from `t`. Values exceeding the length limits yield the
  /// trivial constant-only graph (never an error), so every replacement
  /// always has at least one transformation path. `t` has at most
  /// EdgeLabel::kMaxNode - 1 characters (checked in every build).
  Result<TransformationGraph> Build(std::string_view s,
                                    std::string_view t) const;

  /// One replacement of a batch build; the viewed strings must outlive the
  /// BuildBatch call.
  struct BuildRequest {
    std::string_view source;
    std::string_view target;
  };

  /// Builds the graphs of one structure group: Build in a loop, in request
  /// order, so the shared interner assigns ids in first-sight order. The
  /// graphs of one group are always built serially. Most structure groups
  /// hold a handful of graphs, and a parallel build had to re-intern every
  /// label into the shared interner to keep those ids, which cost more
  /// than building serially; threads pay across groups instead
  /// (GroupingEngine::RefineBatch). The pool argument is ignored; it stays
  /// until a benchmark change stops perfbench/traced.cc from passing one.
  Result<std::vector<TransformationGraph>> BuildBatch(
      const std::vector<BuildRequest>& requests, ThreadPool* pool) const;

  const GraphBuilderOptions& options() const { return options_; }

  const LabelInterner* interner() const { return interner_; }

 private:
  GraphBuilderOptions options_;
  LabelInterner* interner_;
};

}  // namespace ustl

#endif  // USTL_GRAPH_GRAPH_BUILDER_H_
