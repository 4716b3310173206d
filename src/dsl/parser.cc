#include "dsl/parser.h"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <limits>

namespace ustl {
namespace {

// --- Serialization -------------------------------------------------------

std::string SerializeTerm(const Term& term) {
  if (term.is_regex()) return CharClassTermName(term.char_class());
  return "T" + QuoteStringLiteral(term.literal());
}

std::string SerializePosFn(const PosFn& pos) {
  if (pos.is_const_pos()) {
    return "ConstPos(" + std::to_string(pos.k()) + ")";
  }
  return "MatchPos(" + SerializeTerm(pos.term()) + ", " +
         std::to_string(pos.k()) + ", " +
         (pos.dir() == Dir::kBegin ? "B" : "E") + ")";
}

std::string SerializeStringFn(const StringFn& fn) {
  switch (fn.kind()) {
    case StringFn::Kind::kConstantStr:
      return "ConstantStr(" + QuoteStringLiteral(fn.constant()) + ")";
    case StringFn::Kind::kSubStr:
      return "SubStr(" + SerializePosFn(fn.left()) + ", " +
             SerializePosFn(fn.right()) + ")";
    case StringFn::Kind::kPrefix:
      return "Prefix(" + SerializeTerm(fn.term()) + ", " +
             std::to_string(fn.k()) + ")";
    case StringFn::Kind::kSuffix:
      return "Suffix(" + SerializeTerm(fn.term()) + ", " +
             std::to_string(fn.k()) + ")";
  }
  return "?";
}

// --- Parsing -------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Program> Parse() {
    std::vector<StringFn> fns;
    Status status = ParseStringFn(&fns);
    if (!status.ok()) return status;
    SkipSpace();
    while (!AtEnd()) {
      if (!Consume("(+)")) {
        return Error("expected '(+)' between string functions");
      }
      status = ParseStringFn(&fns);
      if (!status.ok()) return status;
      SkipSpace();
    }
    return Program(std::move(fns));
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  // Consumes `token` if it is next (after whitespace); false otherwise.
  bool Consume(std::string_view token) {
    SkipSpace();
    if (text_.substr(pos_, token.size()) != token) return false;
    pos_ += token.size();
    return true;
  }

  // Peeks the next identifier (letters only) without consuming.
  std::string_view PeekIdent() {
    SkipSpace();
    size_t end = pos_;
    while (end < text_.size() &&
           std::isalpha(static_cast<unsigned char>(text_[end]))) {
      ++end;
    }
    return text_.substr(pos_, end - pos_);
  }

  Status Error(const std::string& reason) const {
    return Status::InvalidArgument("program parse error at byte " +
                                   std::to_string(pos_) + ": " + reason);
  }

  // Reads an integer in [-INT_MAX, INT_MAX]: a symmetric range, so -k is
  // representable for every parsed k. Anything outside it is an error.
  Status ParseInt(int* out) {
    SkipSpace();
    const size_t start = pos_;
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) ++pos_;
    int64_t magnitude = 0;
    bool in_range = true;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      if (in_range) {
        magnitude = magnitude * 10 + (text_[pos_] - '0');
        in_range = magnitude <= std::numeric_limits<int>::max();
      }
      ++pos_;
    }
    if (pos_ == start + (negative ? 1 : 0)) {
      return Error("expected an integer");
    }
    if (!in_range) return Error("integer out of range");
    *out = static_cast<int>(negative ? -magnitude : magnitude);
    return Status::OK();
  }

  Status ParseQuotedString(std::string* out) {
    SkipSpace();
    if (AtEnd() || text_[pos_] != '"') return Error("expected '\"'");
    ++pos_;
    out->clear();
    while (!AtEnd() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (AtEnd()) return Error("dangling escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '\\': out->push_back('\\'); break;
        case '"': out->push_back('"'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        case 'r': out->push_back('\r'); break;
        case 'x': {
          if (pos_ + 2 > text_.size()) return Error("truncated \\x escape");
          auto hex = [](char h) -> int {
            if (h >= '0' && h <= '9') return h - '0';
            if (h >= 'a' && h <= 'f') return h - 'a' + 10;
            if (h >= 'A' && h <= 'F') return h - 'A' + 10;
            return -1;
          };
          const int hi = hex(text_[pos_]);
          const int lo = hex(text_[pos_ + 1]);
          if (hi < 0 || lo < 0) return Error("bad \\x escape");
          pos_ += 2;
          out->push_back(static_cast<char>(hi * 16 + lo));
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    if (AtEnd()) return Error("unterminated string literal");
    ++pos_;  // closing quote
    return Status::OK();
  }

  Status ParseTerm(Term* out) {
    SkipSpace();
    std::string_view ident = PeekIdent();
    if (ident == "Td" || ident == "Tl" || ident == "TC" || ident == "Tb") {
      pos_ += 2;
      CharClass c = CharClass::kDigit;
      if (ident == "Tl") c = CharClass::kLower;
      if (ident == "TC") c = CharClass::kUpper;
      if (ident == "Tb") c = CharClass::kSpace;
      *out = Term::Regex(c);
      return Status::OK();
    }
    // Constant term: T"literal".
    if (!AtEnd() && text_[pos_] == 'T') {
      ++pos_;
      std::string literal;
      Status status = ParseQuotedString(&literal);
      if (!status.ok()) return status;
      if (literal.empty()) return Error("constant term must be non-empty");
      *out = Term::Constant(std::move(literal));
      return Status::OK();
    }
    return Error("expected a term (Td/Tl/TC/Tb or T\"...\")");
  }

  Status ParsePosFn(PosFn* out) {
    std::string_view ident = PeekIdent();
    if (ident == "ConstPos") {
      pos_ += ident.size();
      if (!Consume("(")) return Error("expected '(' after ConstPos");
      int k = 0;
      Status status = ParseInt(&k);
      if (!status.ok()) return status;
      if (k == 0) return Error("ConstPos requires k != 0");
      if (!Consume(")")) return Error("expected ')'");
      *out = PosFn::ConstPos(k);
      return Status::OK();
    }
    if (ident == "MatchPos") {
      pos_ += ident.size();
      if (!Consume("(")) return Error("expected '(' after MatchPos");
      Term term = Term::Regex(CharClass::kDigit);
      Status status = ParseTerm(&term);
      if (!status.ok()) return status;
      if (!Consume(",")) return Error("expected ','");
      int k = 0;
      status = ParseInt(&k);
      if (!status.ok()) return status;
      if (k == 0) return Error("MatchPos requires k != 0");
      if (!Consume(",")) return Error("expected ','");
      Dir dir;
      if (Consume("B")) {
        dir = Dir::kBegin;
      } else if (Consume("E")) {
        dir = Dir::kEnd;
      } else {
        return Error("expected direction B or E");
      }
      if (!Consume(")")) return Error("expected ')'");
      *out = PosFn::MatchPos(term, k, dir);
      return Status::OK();
    }
    return Error("expected a position function (ConstPos or MatchPos)");
  }

  Status ParseAffixArgs(Term* term, int* k) {
    if (!Consume("(")) return Error("expected '('");
    Status status = ParseTerm(term);
    if (!status.ok()) return status;
    if (!term->is_regex()) {
      return Error("affix functions require a regex term");
    }
    if (!Consume(",")) return Error("expected ','");
    status = ParseInt(k);
    if (!status.ok()) return status;
    if (*k == 0) return Error("affix functions require k != 0");
    if (!Consume(")")) return Error("expected ')'");
    return Status::OK();
  }

  Status ParseStringFn(std::vector<StringFn>* fns) {
    std::string_view ident = PeekIdent();
    if (ident == "ConstantStr") {
      pos_ += ident.size();
      if (!Consume("(")) return Error("expected '(' after ConstantStr");
      std::string value;
      Status status = ParseQuotedString(&value);
      if (!status.ok()) return status;
      if (value.empty()) return Error("ConstantStr must be non-empty");
      if (!Consume(")")) return Error("expected ')'");
      fns->push_back(StringFn::ConstantStr(std::move(value)));
      return Status::OK();
    }
    if (ident == "SubStr") {
      pos_ += ident.size();
      if (!Consume("(")) return Error("expected '(' after SubStr");
      PosFn left = PosFn::ConstPos(1), right = PosFn::ConstPos(1);
      Status status = ParsePosFn(&left);
      if (!status.ok()) return status;
      if (!Consume(",")) return Error("expected ','");
      status = ParsePosFn(&right);
      if (!status.ok()) return status;
      if (!Consume(")")) return Error("expected ')'");
      fns->push_back(StringFn::SubStr(left, right));
      return Status::OK();
    }
    if (ident == "Prefix" || ident == "Suffix") {
      const bool is_prefix = ident == "Prefix";
      pos_ += ident.size();
      Term term = Term::Regex(CharClass::kDigit);
      int k = 0;
      Status status = ParseAffixArgs(&term, &k);
      if (!status.ok()) return status;
      fns->push_back(is_prefix ? StringFn::Prefix(term, k)
                               : StringFn::Suffix(term, k));
      return Status::OK();
    }
    return Error("expected a string function "
                 "(ConstantStr/SubStr/Prefix/Suffix)");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string QuoteStringLiteral(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    const unsigned char uc = static_cast<unsigned char>(c);
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (uc < 0x20 || uc == 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x", uc);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string SerializeProgram(const Program& program) {
  std::string out;
  for (size_t i = 0; i < program.size(); ++i) {
    if (i > 0) out += " (+) ";
    out += SerializeStringFn(program.functions()[i]);
  }
  return out;
}

Result<Program> ParseProgram(std::string_view text) {
  Parser parser(text);
  return parser.Parse();
}

}  // namespace ustl
