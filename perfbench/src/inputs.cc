#include "inputs.h"

#include <cstdio>
#include <random>
#include <vector>

namespace perfbench {

namespace {

constexpr const char* kActions[] = {"GET",  "PUT",  "POST", "DEL",  "HEAD",
                                    "LIST", "SCAN", "STAT", "GETS", "POSTED"};
constexpr const char* kStatus[] = {"200", "404", "500", "301",
                                   "201", "403", "502", "302"};

std::string LogLine(std::mt19937_64& rng, uint64_t ts) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "ts=%08llu user=u%llu action=%s status=%s\n",
                static_cast<unsigned long long>(ts),
                static_cast<unsigned long long>(rng() % 12),
                kActions[rng() % 10], kStatus[rng() % 8]);
  return buf;
}

}  // namespace

std::string MakeLog(uint64_t lines, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out;
  uint64_t ts = 100000 + rng() % 1000;
  for (uint64_t i = 0; i < lines; ++i) {
    ts += 1 + rng() % 5;
    out += LogLine(rng, ts);
  }
  return out;
}

std::string MakeLogVersion(const std::string& base, uint64_t edits,
                           uint64_t seed) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < base.size()) {
    const size_t nl = base.find('\n', start);
    const size_t end = nl == std::string::npos ? base.size() : nl + 1;
    lines.push_back(base.substr(start, end - start));
    start = end;
  }
  std::mt19937_64 rng(seed);
  const uint64_t n = edits == 0 ? 1 : edits;
  for (uint64_t e = 0; e < n && !lines.empty(); ++e) {
    const size_t at = rng() % lines.size();
    lines[at] = LogLine(rng, 900000 + rng() % 90000);
  }
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

std::string MakeDna(uint64_t length, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string out;
  out.reserve(length + 8);
  while (out.size() < length) {
    if (rng() % 400 == 0) {
      out += "TATAAAA";
    } else {
      out += "ACGT"[rng() % 4];
    }
  }
  out.resize(length);
  return out;
}

std::string MakeProse(uint64_t length, uint64_t seed) {
  static constexpr const char* kWords[] = {
      "the", "spanner", "reads", "a", "grammar", "over", "compressed",
      "text", "and", "counts", "every", "match", "without", "unpacking"};
  std::mt19937_64 rng(seed);
  std::string out;
  while (out.size() < length) {
    out += kWords[rng() % 14];
    out += rng() % 9 == 0 ? '\n' : ' ';
  }
  out.resize(length);
  return out;
}

}  // namespace perfbench
