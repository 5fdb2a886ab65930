// The benchmark's own answer key: counts, non-emptiness and tuple
// membership for the four benchmark patterns, computed over the
// uncompressed text without the library's evaluator.
//
//  * Counts scan the text: literal and motif occurrences (overlapping),
//    parsed log fields for the two log patterns.
//  * Membership is a predicate over a tuple's spans, so no expected tuple
//    set is ever stored (an extract of 2^30-length documents would not fit).
//  * A document built as block^times (SlpRepeat) is never expanded: its
//    count is count(block)·times + boundary·(times−1), where boundary is
//    the number of matches that straddle one block boundary
//    (count(block·block) − 2·count(block)); membership reads characters
//    modulo the block. Every benchmark match is shorter than one block.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "slpspan/types.h"

namespace perfbench {

enum class PatternKind {
  kFixed,  ///< .*x{c1 c2 ... ck}.* with one byte class per position
  kUser,   ///< .*user=x{u[0-9]+} .*
  kLog4,   ///< the four-variable ts/user/action/status log pattern
};

struct Pattern {
  std::string name;   ///< short label used in reports
  std::string regex;  ///< what Query::Compile and the wire receive
  PatternKind kind = PatternKind::kFixed;
  std::vector<std::string> classes;  ///< kFixed: allowed bytes per position
  std::vector<std::string> vars;     ///< variable names, in tuple order
};

/// The benchmark's patterns: a literal, the one-variable user= log
/// pattern, the four-variable log pattern (q ≈ 92) and a DNA motif.
const Pattern& LiteralPattern();
const Pattern& UserPattern();
const Pattern& Log4Pattern();
const Pattern& MotifPattern();

/// A document's uncompressed content as `block` repeated `times` times
/// (times == 1 for an ordinary text).
struct Text {
  std::string block;
  uint64_t times = 1;

  uint64_t length() const { return block.size() * times; }
  char At(uint64_t i) const { return block[i % block.size()]; }
};

/// |⟦pattern⟧(text)|.
uint64_t Count(const Pattern& pattern, const Text& text);

/// Whether `spans` (one entry per Pattern::vars, in order) is in
/// ⟦pattern⟧(text).
bool Member(const Pattern& pattern, const Text& text,
            const std::vector<std::optional<slpspan::Span>>& spans);

/// Maps a result tuple onto Pattern::vars order using the query's
/// variable registry; nullopt when a variable is unknown to the query or
/// the tuple has the wrong arity.
std::optional<std::vector<std::optional<slpspan::Span>>> Project(
    const Pattern& pattern, const slpspan::VariableSet& vars,
    const slpspan::SpanTuple& tuple);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
