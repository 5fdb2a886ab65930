// Seeded input generators for the benchmark. Every text is a pure function
// of its parameters and seed (std::mt19937_64 is fully specified by the
// standard, and no distribution objects are used), so one seed gives the
// same inputs on every platform. The generators are the benchmark's own:
// the oracle (oracle.h) parses exactly the formats made here.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Server log lines "ts=00123456 user=u7 action=GET status=200\n". Actions
/// include POST and GETS/POSTED variants, so the four-variable log pattern
/// matches some lines and not others.
std::string MakeLog(uint64_t lines, uint64_t seed);

/// A near-duplicate of `base`: `edits` whole lines replaced by fresh ones
/// (at least one), the versioned-log case that shares grammar rules.
std::string MakeLogVersion(const std::string& base, uint64_t edits,
                           uint64_t seed);

/// Uniform ACGT with the motif "TATAAAA" planted about once per 400 bases.
std::string MakeDna(uint64_t length, uint64_t seed);

/// Lower-case words, spaces and newlines only: no digit, '=' or upper-case
/// letter, so the corpus pre-filter can refute every benchmark pattern.
std::string MakeProse(uint64_t length, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
