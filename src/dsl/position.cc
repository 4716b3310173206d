#include "dsl/position.h"

#include "common/status.h"

namespace ustl {

PosFn PosFn::ConstPos(int k) {
  USTL_CHECK(k != 0);
  PosFn p;
  p.kind_ = Kind::kConstPos;
  p.k_ = k;
  return p;
}

PosFn PosFn::MatchPos(Term term, int k, Dir dir) {
  USTL_CHECK(k != 0);
  PosFn p;
  p.kind_ = Kind::kMatchPos;
  p.term_ = std::move(term);
  p.k_ = k;
  p.dir_ = dir;
  return p;
}

std::optional<int> PosFn::Eval(std::string_view s) const {
  const int n = static_cast<int>(s.size());
  if (kind_ == Kind::kConstPos) {
    if (k_ > 0 && k_ <= n + 1) return k_;
    if (k_ < 0 && k_ >= -(n + 1)) return n + 2 + k_;
    return std::nullopt;
  }
  auto matches = FindMatches(term_, s);
  const int m = static_cast<int>(matches.size());
  int idx;  // 1-based match index
  if (k_ > 0 && k_ <= m) {
    idx = k_;
  } else if (k_ < 0 && k_ >= -m) {
    idx = m + 1 + k_;
  } else {
    return std::nullopt;
  }
  const TermMatch& match = matches[idx - 1];
  return dir_ == Dir::kBegin ? match.begin : match.end;
}

std::string PosFn::ToString() const {
  if (kind_ == Kind::kConstPos) {
    return "ConstPos(" + std::to_string(k_) + ")";
  }
  return "MatchPos(" + term_.ToString() + ", " + std::to_string(k_) + ", " +
         (dir_ == Dir::kBegin ? "B" : "E") + ")";
}

bool PosFn::operator<(const PosFn& o) const {
  if (kind_ != o.kind_) return kind_ < o.kind_;
  if (k_ != o.k_) return k_ < o.k_;
  if (dir_ != o.dir_) return dir_ < o.dir_;
  return term_ < o.term_;
}

}  // namespace ustl
