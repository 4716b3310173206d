// Transformation graph construction (Appendix C, Algorithm 8), extended
// with the affix labels of Appendix D and the static orders of Appendix E.
// Runs in O(|s|^2 |t|^2) time; the options bound the label explosion for
// long values.
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
/// configuration (affix extension on, static orders on).
struct GraphBuilderOptions {
  /// Adds Prefix/Suffix labels (Appendix D). Figure 10 ablates this.
  bool enable_affix = true;
  /// Adds SubStr labels; disable only for degenerate constant-only graphs.
  bool enable_substr = true;
  /// Adds ConstantStr labels (Definition 2 line 15).
  bool enable_constants = true;
  /// Static order of position functions (Section 7.4): at each position
  /// keep only the best tier available (regex MatchPos > constant-term
  /// MatchPos > ConstPos).
  bool position_static_order = true;
  /// Restrict ConstantStr and SubStr labels to edges aligned with class
  /// tokens of t (maximal character-class runs; the full-width edge is
  /// always kept so every replacement has a path). Appendix E prefers
  /// token-structured constants over character fragments; aligning the
  /// edges keeps the path space at token granularity, which is what makes
  /// pivot search tractable on conflict-heavy structure groups. Affix
  /// labels are not restricted (Street -> St needs the mid-token cut,
  /// Appendix D).
  bool token_aligned_labels = true;
  /// Values longer than these get a trivial graph (single full-width
  /// ConstantStr edge) instead of a quadratic label set.
  int max_input_len = 96;
  int max_output_len = 64;
  /// Per-edge cap on SubStr labels; deterministic prefix of the generation
  /// order is kept, so analogous edges in different graphs keep analogous
  /// labels.
  int max_substr_labels_per_edge = 32;
  /// Optional Appendix-E scorer: enables constant-term MatchPos positions
  /// and prunes dominated ConstantStr labels. May be null.
  const TermScorer* scorer = nullptr;
};

/// Builds transformation graphs, interning labels into a shared interner.
/// Thread-compatible: const after construction except for the interner.
class GraphBuilder {
 public:
  GraphBuilder(GraphBuilderOptions options, LabelInterner* interner);

  /// Builds the graph for the replacement s -> t. `t` must be non-empty and
  /// `s` must differ from `t`. Values exceeding the length limits yield the
  /// trivial constant-only graph (never an error), so every replacement
  /// always has at least one transformation path.
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
  /// (GroupingEngine::RefineBatch, GroupAllUpfront). The pool argument is
  /// ignored; it stays until a benchmark change stops perfbench/traced.cc
  /// from passing one.
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
