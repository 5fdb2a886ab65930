// Tests of the benchmark's oracle on small texts whose answers are counted
// by hand, plus a brute-force cross-check of Count against Member over
// every span of short texts. Exit code 0 = all passed.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "oracle.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<std::optional<slpspan::Span>> Spans(
    std::initializer_list<std::pair<uint64_t, uint64_t>> spans) {
  std::vector<std::optional<slpspan::Span>> out;
  for (const auto& [b, e] : spans) out.push_back(slpspan::Span{b, e});
  return out;
}

// Number of single spans [b, e> of `text` that Member accepts.
uint64_t BruteForce(const Pattern& p, const Text& text) {
  uint64_t n = 0;
  for (uint64_t b = 1; b <= text.length() + 1; ++b) {
    for (uint64_t e = b; e <= text.length() + 1; ++e) {
      n += Member(p, text, Spans({{b, e}})) ? 1 : 0;
    }
  }
  return n;
}

void TestLiteral() {
  const Pattern& p = LiteralPattern();
  const Text t{"status=500 status=5000 status=50\nstatus=500", 1};
  Expect(Count(p, t) == 3, "literal: three occurrences");
  Expect(Member(p, t, Spans({{1, 11}})), "literal: first occurrence");
  Expect(Member(p, t, Spans({{12, 22}})), "literal: prefix of status=5000");
  Expect(!Member(p, t, Spans({{2, 12}})), "literal: shifted span");
  Expect(!Member(p, t, Spans({{1, 10}})), "literal: short span");
  Expect(BruteForce(p, t) == Count(p, t), "literal: brute force");
}

void TestMotif() {
  const Pattern& p = MotifPattern();  // TATA[AT]A[AT]
  // At 0: TATAAAA matches. At 7: TATATAT matches. At 9: TATATCG fails
  // (the sixth letter must be A). No other start begins with TATA.
  const Text t{"TATAAAATATATATCG", 1};
  Expect(Count(p, t) == 2, "motif: two matches");
  Expect(Member(p, t, Spans({{1, 8}})), "motif: at 1");
  Expect(Member(p, t, Spans({{8, 15}})), "motif: at 8");
  Expect(!Member(p, t, Spans({{10, 17}})), "motif: at 10 fails");
  Expect(BruteForce(p, t) == 2, "motif: brute force");
  // Overlapping matches at 0 and 2; at 4 only six letters remain.
  const Text overlap{"TATATATATA", 1};
  Expect(Count(p, overlap) == 2, "motif: overlapping matches");
}

void TestUser() {
  const Pattern& p = UserPattern();
  const Text t{"ts=1 user=u12 action=GET\nuser=u user=x1 user=u3 \nuser=u9", 1};
  // user=u12 (followed by ' ') and user=u3 (followed by ' ') match;
  // "user=u " has no digit, "user=x1" no u, trailing "user=u9" no space.
  Expect(Count(p, t) == 2, "user: two matches");
  Expect(Member(p, t, Spans({{11, 14}})), "user: u12");
  Expect(!Member(p, t, Spans({{11, 13}})), "user: u1 is not followed by space");
  Expect(BruteForce(p, t) == 2, "user: brute force");
}

void TestLog4() {
  const Pattern& p = Log4Pattern();
  const std::string lines =
      "ts=00000001 user=u1 action=GET status=200\n"    // match
      "ts=00000002 user=u2 action=POST status=500\n"   // POST not allowed
      "ts=00000003 user=u3 action=POSTED status=404\n" // match
      "ts= user=u4 action=GET status=200\n"            // no ts digits
      "ts=00000005 user=u5 action=GETS status=302\n"   // match
      "ts=00000006 user=u6 action=GET status=999\n";   // status not allowed
  const Text t{lines, 1};
  Expect(Count(p, t) == 3, "log4: three matches");
  // First line: x=[4,12> y=[18,20> z=[28,31> w=[39,42>.
  Expect(Member(p, t, Spans({{4, 12}, {18, 20}, {28, 31}, {39, 42}})),
         "log4: first line tuple");
  Expect(!Member(p, t, Spans({{5, 12}, {18, 20}, {28, 31}, {39, 42}})),
         "log4: x not starting after ts=");
  Expect(!Member(p, t, Spans({{4, 12}, {18, 20}, {28, 30}, {38, 41}})),
         "log4: truncated action");
  Expect(!Member(p, t, Spans({{4, 12}, {18, 20}, {28, 31}})), "log4: arity");
}

void TestRepeat() {
  // block "ba" x 3 = "bababa": literal "ab" only across block boundaries.
  Pattern ab{"ab", ".*x{ab}.*", PatternKind::kFixed, {"a", "b"}, {"x"}};
  const Text t{"ba", 3};
  Expect(Count(ab, t) == 2, "repeat: boundary matches");
  Expect(BruteForce(ab, t) == 2, "repeat: brute force over modular text");
  // One matching log line per two-line block, 1000 blocks.
  const std::string block =
      "ts=00000001 user=u1 action=GET status=200\n"
      "ts=00000002 user=u2 action=POST status=200\n";
  const Text big{block, 1000};
  Expect(Count(Log4Pattern(), big) == 1000, "repeat: log4 closed form");
  Expect(Count(UserPattern(), big) == 2000, "repeat: user closed form");
  const uint64_t last = block.size() * 999;  // 0-based start of last block
  Expect(Member(UserPattern(), big, Spans({{last + 18, last + 20}})),
         "repeat: member in the last block");
  Expect(!Member(UserPattern(), big,
                 Spans({{big.length() - 1, big.length() + 1}})),
         "repeat: span past the end");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestLiteral();
  perfbench::TestMotif();
  perfbench::TestUser();
  perfbench::TestLog4();
  perfbench::TestRepeat();
  if (perfbench::g_failures == 0) std::printf("oracle tests passed\n");
  return perfbench::g_failures == 0 ? 0 : 1;
}
