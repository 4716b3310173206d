#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <system_error>

namespace ustl {

std::vector<std::string> SplitAndTrim(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && s[i] == sep) ++i;
    size_t j = i;
    while (j < s.size() && s[j] != sep) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  size_t i = 0;
  while (i < s.size()) {
    if (i + from.size() <= s.size() && s.substr(i, from.size()) == from) {
      out.append(to);
      i += from.size();
    } else {
      out.push_back(s[i]);
      ++i;
    }
  }
  return out;
}

std::string NormalizeWhitespace(std::string_view s) {
  std::string out;
  bool in_space = true;  // leading spaces are dropped
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

std::string EscapeForDisplay(std::string_view s) {
  std::string out;
  for (char c : s) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (uc < 0x20 || uc == 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", uc);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void AppendJsonString(std::string* out, std::string_view value) {
  out->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::optional<uint64_t> ParseUnsigned(std::string_view s) {
  uint64_t value = 0;
  const char* end = s.data() + s.size();
  const std::from_chars_result parsed = std::from_chars(s.data(), end, value);
  if (parsed.ec != std::errc() || parsed.ptr != end) return std::nullopt;
  return value;
}

}  // namespace ustl
