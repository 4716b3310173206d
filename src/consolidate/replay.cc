#include "consolidate/replay.h"

#include <algorithm>

#include "dsl/parser.h"
#include "replace/replacement_store.h"

namespace ustl {

namespace {

// Quoted form for pair values in the text log: arbitrary bytes survive
// the line-oriented "key: value" format.
std::string QuoteValue(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

// Parses one quoted value starting at `pos` (which must point at the
// opening quote). Advances `pos` past the closing quote. False on
// malformed input.
bool ParseQuotedValue(std::string_view text, size_t* pos, std::string* out) {
  if (*pos >= text.size() || text[*pos] != '"') return false;
  out->clear();
  for (size_t i = *pos + 1; i < text.size(); ++i) {
    char c = text[i];
    if (c == '"') {
      *pos = i + 1;
      return true;
    }
    if (c == '\\') {
      if (++i >= text.size()) return false;
      switch (text[i]) {
        case '\\':
          *out += '\\';
          break;
        case '"':
          *out += '"';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        default:
          return false;
      }
      continue;
    }
    *out += c;
  }
  return false;  // unterminated
}

}  // namespace

size_t ApplyTransformation(Column* column,
                           const ApprovedTransformation& transformation) {
  // Route through the replacement store: candidate pairs (whole-value AND
  // token-level, Appendix A) are generated exactly as during the original
  // verification session, each consistent pair is applied at its recorded
  // occurrences, and Section 7.1's bookkeeping keeps later pairs valid
  // after earlier edits.
  ReplacementStore store(*column, CandidateGenOptions{});
  size_t edits = 0;
  if (!transformation.pairs.empty()) {
    // Faithful mode: rewrite exactly the recorded member pairs, in the
    // recorded order. A pair's transformation graph is a pure function of
    // its two values, so every candidate with the same (lhs, rhs) was a
    // member of the approved group; candidates appended by this
    // transformation's own edits are excluded, just as the live session's
    // grouping snapshot excluded them. Pairs are unique by (lhs, rhs), so
    // each recorded pair is one lookup.
    const size_t snapshot = store.num_pairs();
    for (const StringPair& target : transformation.pairs) {
      const size_t i = store.Find(target.lhs, target.rhs);
      if (i >= snapshot || store.occurrences(i).empty()) continue;
      edits += transformation.direction == ReplaceDirection::kLhsToRhs
                   ? store.Apply(i)
                   : store.ApplyReverse(i);
    }
    *column = store.column();
    return edits;
  }
  // Generalization mode (no recorded members — legacy log, or a log
  // deliberately stripped to programs for fresh batches of the feed).
  // pairs() may grow while applying (edited clusters are re-derived);
  // newly appended pairs get their consistency check too, so one replay
  // step can complete a chain the original session approved in one group.
  for (size_t i = 0; i < store.num_pairs(); ++i) {
    if (store.occurrences(i).empty()) continue;
    const StringPair& pair = store.pair(i);
    if (!transformation.program.ConsistentWith(pair.lhs, pair.rhs)) continue;
    edits += transformation.direction == ReplaceDirection::kLhsToRhs
                 ? store.Apply(i)
                 : store.ApplyReverse(i);
  }
  *column = store.column();
  return edits;
}

size_t ReplayTransformations(
    Table* table,
    const std::vector<ApprovedTransformation>& transformations) {
  size_t edits = 0;
  for (size_t col = 0; col < table->num_columns(); ++col) {
    const std::string& name = table->column_names()[col];
    Column column = table->ExtractColumn(col);
    size_t column_edits = 0;
    for (const ApprovedTransformation& transformation : transformations) {
      if (!transformation.column.empty() && transformation.column != name) {
        continue;
      }
      column_edits += ApplyTransformation(&column, transformation);
    }
    if (column_edits > 0) table->StoreColumn(col, column);
    edits += column_edits;
  }
  return edits;
}

std::string SerializeTransformationLog(
    const std::vector<ApprovedTransformation>& transformations) {
  std::string out;
  for (const ApprovedTransformation& transformation : transformations) {
    if (!transformation.column.empty()) {
      out += "column: " + transformation.column + "\n";
    }
    out += "direction: ";
    out += transformation.direction == ReplaceDirection::kLhsToRhs
               ? "lhs->rhs"
               : "rhs->lhs";
    out += "\n";
    out += "program: " + SerializeProgram(transformation.program) + "\n";
    for (const StringPair& pair : transformation.pairs) {
      out += "pair: " + QuoteValue(pair.lhs) + " -> " + QuoteValue(pair.rhs) +
             "\n";
    }
    out += "\n";
  }
  return out;
}

Result<std::vector<ApprovedTransformation>> ParseTransformationLog(
    std::string_view text) {
  std::vector<ApprovedTransformation> out;
  ApprovedTransformation current;
  bool has_program = false;
  // First line of the block that set column, direction or a pair (0 =
  // none): such a block without a program is malformed, not skippable.
  size_t keyed_line = 0;

  // Ends the block at a blank line or the end of the text; the next
  // block starts from scratch either way.
  auto flush = [&]() -> Status {
    if (has_program) {
      out.push_back(std::move(current));
    } else if (keyed_line != 0) {
      return Status::InvalidArgument(
          "transformation log line " + std::to_string(keyed_line) +
          ": block has no 'program:' line");
    }
    current = ApprovedTransformation{};
    has_program = false;
    keyed_line = 0;
    return Status::OK();
  };

  size_t line_start = 0;
  size_t line_number = 0;
  while (line_start <= text.size()) {
    size_t line_end = text.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = text.size();
    std::string_view line = text.substr(line_start, line_end - line_start);
    ++line_number;
    line_start = line_end + 1;

    // Trim trailing CR.
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) {
      Status status = flush();
      if (!status.ok()) return status;
      if (line_end == text.size()) break;
      continue;
    }
    const size_t colon = line.find(": ");
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument(
          "transformation log line " + std::to_string(line_number) +
          ": expected 'key: value'");
    }
    std::string_view key = line.substr(0, colon);
    std::string_view value = line.substr(colon + 2);
    if (keyed_line == 0 &&
        (key == "column" || key == "direction" || key == "pair")) {
      keyed_line = line_number;
    }
    if (key == "column") {
      current.column = std::string(value);
    } else if (key == "direction") {
      if (value == "lhs->rhs") {
        current.direction = ReplaceDirection::kLhsToRhs;
      } else if (value == "rhs->lhs") {
        current.direction = ReplaceDirection::kRhsToLhs;
      } else {
        return Status::InvalidArgument(
            "transformation log line " + std::to_string(line_number) +
            ": unknown direction '" + std::string(value) + "'");
      }
    } else if (key == "program") {
      Result<Program> program = ParseProgram(value);
      if (!program.ok()) {
        return Status::InvalidArgument(
            "transformation log line " + std::to_string(line_number) +
            ": " + program.status().ToString());
      }
      current.program = std::move(program).value();
      has_program = true;
    } else if (key == "pair") {
      StringPair pair;
      size_t pos = 0;
      bool ok = ParseQuotedValue(value, &pos, &pair.lhs) &&
                value.substr(pos, 4) == " -> ";
      if (ok) {
        pos += 4;
        ok = ParseQuotedValue(value, &pos, &pair.rhs) && pos == value.size();
      }
      if (!ok) {
        return Status::InvalidArgument(
            "transformation log line " + std::to_string(line_number) +
            ": expected pair: \"lhs\" -> \"rhs\"");
      }
      current.pairs.push_back(std::move(pair));
    }
    // Unknown keys (e.g. "size") are informational; skip.
    if (line_end == text.size()) {
      Status status = flush();
      if (!status.ok()) return status;
      break;
    }
  }
  return out;
}

}  // namespace ustl
