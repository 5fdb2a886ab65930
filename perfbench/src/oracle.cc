#include "oracle.h"

#include <array>

namespace perfbench {

namespace {

constexpr std::array<std::string_view, 16> kActions = {
    "GET",  "GETS",  "PUT",  "PUTS",  "POSTE", "POSTED", "DEL",  "DELS",
    "HEAD", "HEADS", "LIST", "LISTS", "SCAN",  "SCANS",  "STAT", "STATS"};
constexpr std::array<std::string_view, 8> kStatus = {
    "200", "404", "500", "301", "201", "403", "502", "302"};

Pattern MakeFixed(std::string name, std::string regex,
                  std::vector<std::string> classes) {
  return Pattern{std::move(name), std::move(regex), PatternKind::kFixed,
                 std::move(classes), {"x"}};
}

bool Digit(char c) { return c >= '0' && c <= '9'; }

bool Eq(const Text& t, uint64_t pos, std::string_view s) {
  if (pos > t.length() || t.length() - pos < s.size()) return false;
  for (size_t i = 0; i < s.size(); ++i) {
    if (t.At(pos + i) != s[i]) return false;
  }
  return true;
}

/// Digits in [from, to), at least one.
bool Digits(const Text& t, uint64_t from, uint64_t to) {
  if (to <= from || to > t.length()) return false;
  for (uint64_t i = from; i < to; ++i) {
    if (!Digit(t.At(i))) return false;
  }
  return true;
}

/// End of the digit run starting at `pos` (== pos when there is none).
uint64_t DigitRun(const Text& t, uint64_t pos) {
  while (pos < t.length() && Digit(t.At(pos))) ++pos;
  return pos;
}

template <size_t N>
bool OneOf(const Text& t, uint64_t from, uint64_t to,
           const std::array<std::string_view, N>& words) {
  for (std::string_view w : words) {
    if (to - from == w.size() && Eq(t, from, w)) return true;
  }
  return false;
}

bool FixedAt(const Pattern& p, const Text& t, uint64_t pos) {
  if (pos > t.length() || t.length() - pos < p.classes.size()) return false;
  for (size_t k = 0; k < p.classes.size(); ++k) {
    if (p.classes[k].find(t.At(pos + k)) == std::string::npos) return false;
  }
  return true;
}

/// Matches of the user pattern whose "user=" starts at `pos`.
uint64_t UserAt(const Text& t, uint64_t pos) {
  if (!Eq(t, pos, "user=u")) return 0;
  const uint64_t end = DigitRun(t, pos + 6);
  return end > pos + 6 && Eq(t, end, " ") ? 1 : 0;
}

/// Matches of the four-variable pattern whose "ts=" starts at `pos`.
uint64_t Log4At(const Text& t, uint64_t pos) {
  if (!Eq(t, pos, "ts=")) return 0;
  const uint64_t x_end = DigitRun(t, pos + 3);
  if (x_end == pos + 3 || !Eq(t, x_end, " user=u")) return 0;
  const uint64_t y_end = DigitRun(t, x_end + 7);
  if (y_end == x_end + 7 || !Eq(t, y_end, " action=")) return 0;
  const uint64_t z = y_end + 8;
  uint64_t n = 0;
  for (std::string_view action : kActions) {
    if (!Eq(t, z, action) || !Eq(t, z + action.size(), " status=")) continue;
    const uint64_t w = z + action.size() + 8;
    for (std::string_view status : kStatus) n += Eq(t, w, status) ? 1 : 0;
  }
  return n;
}

uint64_t CountPlain(const Pattern& p, const Text& t) {
  uint64_t n = 0;
  for (uint64_t pos = 0; pos < t.length(); ++pos) {
    switch (p.kind) {
      case PatternKind::kFixed:
        n += FixedAt(p, t, pos) ? 1 : 0;
        break;
      case PatternKind::kUser:
        n += UserAt(t, pos);
        break;
      case PatternKind::kLog4:
        n += Log4At(t, pos);
        break;
    }
  }
  return n;
}

}  // namespace

const Pattern& LiteralPattern() {
  static const Pattern p = [] {
    std::vector<std::string> classes;
    for (char c : std::string_view("status=500")) classes.emplace_back(1, c);
    return MakeFixed("literal", ".*x{status=500}.*", std::move(classes));
  }();
  return p;
}

const Pattern& MotifPattern() {
  static const Pattern p =
      MakeFixed("motif", ".*x{TATA[AT]A[AT]}.*",
                {"T", "A", "T", "A", "AT", "A", "AT"});
  return p;
}

const Pattern& UserPattern() {
  static const Pattern p{"user", ".*user=x{u[0-9]+} .*", PatternKind::kUser,
                         {}, {"x"}};
  return p;
}

const Pattern& Log4Pattern() {
  static const Pattern p{
      "log4",
      ".*ts=x{[0-9]+} user=y{u[0-9]+} "
      "action=z{GETS?|PUTS?|POSTED?|DELS?|HEADS?|LISTS?|SCANS?|STATS?} "
      "status=w{200|404|500|301|201|403|502|302}.*",
      PatternKind::kLog4,
      {},
      {"x", "y", "z", "w"}};
  return p;
}

uint64_t Count(const Pattern& pattern, const Text& text) {
  const Text one{text.block, 1};
  const uint64_t in_block = CountPlain(pattern, one);
  if (text.times == 1) return in_block;
  const uint64_t in_two = CountPlain(pattern, Text{text.block, 2});
  const uint64_t boundary = in_two - 2 * in_block;
  return in_block * text.times + boundary * (text.times - 1);
}

bool Member(const Pattern& pattern, const Text& text,
            const std::vector<std::optional<slpspan::Span>>& spans) {
  if (spans.size() != pattern.vars.size()) return false;
  for (const auto& s : spans) {
    if (!s || s->begin < 1 || s->end < s->begin ||
        s->end - 1 > text.length()) {
      return false;
    }
  }
  // 0-based [begin, end) of each span.
  auto b = [&](size_t v) { return spans[v]->begin - 1; };
  auto e = [&](size_t v) { return spans[v]->end - 1; };
  switch (pattern.kind) {
    case PatternKind::kFixed:
      return e(0) - b(0) == pattern.classes.size() &&
             FixedAt(pattern, text, b(0));
    case PatternKind::kUser:
      return b(0) >= 5 && Eq(text, b(0) - 5, "user=u") &&
             Digits(text, b(0) + 1, e(0)) && Eq(text, e(0), " ");
    case PatternKind::kLog4:
      return b(0) >= 3 && Eq(text, b(0) - 3, "ts=") &&
             Digits(text, b(0), e(0)) && Eq(text, e(0), " user=") &&
             b(1) == e(0) + 6 && Eq(text, b(1), "u") &&
             Digits(text, b(1) + 1, e(1)) && Eq(text, e(1), " action=") &&
             b(2) == e(1) + 8 && OneOf(text, b(2), e(2), kActions) &&
             Eq(text, e(2), " status=") && b(3) == e(2) + 8 &&
             OneOf(text, b(3), e(3), kStatus);
  }
  return false;
}

std::optional<std::vector<std::optional<slpspan::Span>>> Project(
    const Pattern& pattern, const slpspan::VariableSet& vars,
    const slpspan::SpanTuple& tuple) {
  if (tuple.num_vars() != vars.size() ||
      vars.size() != pattern.vars.size()) {
    return std::nullopt;
  }
  std::vector<std::optional<slpspan::Span>> spans;
  for (const std::string& name : pattern.vars) {
    const std::optional<slpspan::VarId> id = vars.Find(name);
    if (!id) return std::nullopt;
    spans.push_back(tuple.Get(*id));
  }
  return spans;
}

}  // namespace perfbench
