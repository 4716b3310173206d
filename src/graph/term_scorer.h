// Constant-string scoring (Appendix E). Constant terms that appear often
// within a structure group but rarely elsewhere make good labels ("Mr." in
// name columns); single characters are frequent everywhere and score low.
// The score is freqStruc(tau) / sqrt(freqGlobal(tau)).
#ifndef USTL_GRAPH_TERM_SCORER_H_
#define USTL_GRAPH_TERM_SCORER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace ustl {

/// Scores constant-string terms for the static orders of Appendix E.
/// Implementations must be immutable during a grouping run.
class TermScorer {
 public:
  virtual ~TermScorer() = default;
  /// Higher is better; never negative, and 0 means "unknown token". Only
  /// class tokens may score above 0: a string that spans two character
  /// classes, or two kOther characters, scores 0. The graph builder asks
  /// only about the class tokens of a replacement's source s, to pick
  /// its constant-term positions.
  virtual double Score(std::string_view token) const = 0;
};

/// Token frequencies over a corpus of strings (class tokens = maximal
/// character-class runs). One instance holds the whole column's counts and
/// is shared by every structure group's scorer. Get looks the viewed token
/// up without copying it: the counts are keyed by views into token storage
/// the object owns, so it can be neither copied nor moved.
class CorpusFrequency {
 public:
  CorpusFrequency() = default;
  CorpusFrequency(const CorpusFrequency&) = delete;
  CorpusFrequency& operator=(const CorpusFrequency&) = delete;

  /// Counts the class tokens of one string.
  void Add(std::string_view s);
  int64_t Get(std::string_view token) const;

 private:
  std::deque<std::string> tokens_;  // distinct tokens; never relocated
  std::unordered_map<std::string_view, int64_t> freq_;  // keys view tokens_
};

/// freqStruc / sqrt(freqGlobal). Build one per structure group: feed the
/// group's strings to AddStructureString; `global` is the shared
/// whole-column frequency table (must outlive the scorer).
class FrequencyTermScorer : public TermScorer {
 public:
  explicit FrequencyTermScorer(const CorpusFrequency* global)
      : global_(global) {}

  /// Counts the class tokens of a string belonging to the structure group.
  void AddStructureString(std::string_view s) { struc_.Add(s); }

  double Score(std::string_view token) const override;

 private:
  CorpusFrequency struc_;
  const CorpusFrequency* global_;
};

}  // namespace ustl

#endif  // USTL_GRAPH_TERM_SCORER_H_
