// perfbench — the end-to-end and per-layer benchmark of the three serving
// paths: wire requests (Server + net::Client), corpus queries
// (Corpus::Eval) and warm restarts from the spill tier (SpillResident +
// FlushSpill, then a fresh process).
//
//   perfbench --workload serve|corpus|restart --seed N --seconds S --trace 0|1
//
// Every run executes all three paths over inputs generated from the seed,
// so every run reports every metric; the workload decides which path gets
// most of the run's time (see README.md). Every answer is checked against the
// benchmark's own oracle (oracle.h). The last line of stdout is one JSON
// object: end-to-end metrics untraced, per-layer metrics with --trace 1.
//
// Only the public facade (include/slpspan/) and net::Client are used; no
// library statistics are read — every count reported here is made here.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "net/client.h"
#include "oracle.h"
#include "slpspan/slpspan.h"
#include "slpspan/server.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using slpspan::Document;
using slpspan::DocumentPtr;
using slpspan::Engine;
using slpspan::Query;

// ------------------------------------------------------------ settings ----

// Fixed serving shape: Session workers inside the Server, and client
// connections (one thread each) driving the open-loop schedule.
constexpr uint32_t kServerThreads = 2;
constexpr uint32_t kMaxClients = 3;
constexpr uint32_t kCorpusThreads = 2;
// Extract limits cycled through the schedule.
constexpr uint64_t kLimits[] = {1, 8, 64, 512};
// Repeat-document length floor: 2^30 characters.
constexpr uint64_t kRepeatLength = uint64_t{1} << 30;
// Share of --seconds the traced mode keeps for the timed phases; the rest
// goes to the in-process replays that split the request into layers.
constexpr double kTracedPhaseShare = 0.6;

std::string Alphabet() {
  std::string a;
  for (char c = 32; c < 127; ++c) a += c;
  return a + '\n';
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size()))) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// Failures and wrong answers, shared by every thread of the run.
struct Ledger {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};
  std::mutex mu;
  std::vector<std::string> wrong;

  void Wrong(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (wrong.size() < 20) wrong.push_back(what);
  }
  bool correct() {
    std::lock_guard<std::mutex> lock(mu);
    return wrong.empty();
  }
};
Ledger g_ledger;

// -------------------------------------------------------------- inputs ----

struct DocSpec {
  std::string name;
  std::function<Text(uint64_t seed)> make;
};

struct PairSpec {
  std::string doc;
  const Pattern* pattern;
};

Text Plain(std::string s) { return Text{std::move(s), 1}; }

Text Repeat(uint64_t seed) {
  std::string block = MakeLog(8, seed);
  return Text{block, (kRepeatLength + block.size() - 1) / block.size()};
}

struct ServeConfig {
  std::vector<DocSpec> docs;
  std::vector<PairSpec> pairs;
  double rate = 0;  ///< offered requests per second
};

struct CorpusConfig {
  std::vector<DocSpec> docs;
  std::vector<const Pattern*> patterns;
  double nominal_pass_s = 0;  ///< sizes the fixed pass count of a run
};

struct RestartConfig {
  std::vector<DocSpec> docs;
  std::vector<PairSpec> pairs;
  double nominal_round_s = 0;  ///< sizes the fixed round count of a run
};

// A fixed amount of work per run, so that every run attempts whole rounds
// of the same operations: the count a phase of `seconds` would take at the
// nominal per-round cost measured when the benchmark was set up.
size_t Rounds(double seconds, double nominal_s) {
  return std::max<size_t>(3, static_cast<size_t>(std::lround(seconds / nominal_s)));
}

struct Plan {
  ServeConfig serve;
  CorpusConfig corpus;
  RestartConfig restart;
  double serve_share = 0, corpus_share = 0, restart_share = 0;
};

std::vector<PairSpec> LogPairs(const std::string& doc,
                               std::vector<const Pattern*> patterns) {
  std::vector<PairSpec> pairs;
  for (const Pattern* p : patterns) pairs.push_back({doc, p});
  return pairs;
}

template <typename T>
void Append(std::vector<T>* to, std::vector<T> more) {
  to->insert(to->end(), more.begin(), more.end());
}

ServeConfig WireConfig() {
  ServeConfig c;
  c.docs = {{"log", [](uint64_t s) { return Plain(MakeLog(1000, s + 1)); }},
            {"dna", [](uint64_t s) { return Plain(MakeDna(16384, s + 2)); }},
            {"rep", [](uint64_t s) { return Repeat(s + 3); }}};
  const std::vector<const Pattern*> logs = {&LiteralPattern(), &UserPattern(),
                                            &Log4Pattern()};
  c.pairs = LogPairs("log", logs);
  Append(&c.pairs, LogPairs("dna", {&MotifPattern()}));
  Append(&c.pairs, LogPairs("rep", logs));
  c.rate = 200;
  return c;
}

CorpusConfig CatalogConfig() {
  CorpusConfig c;
  for (int v = 0; v < 6; ++v) {
    c.docs.push_back({"ver" + std::to_string(v), [v](uint64_t s) {
                        return Plain(MakeLogVersion(MakeLog(800, s + 10), 8,
                                                    s + 11 + v));
                      }});
  }
  for (int i = 0; i < 3; ++i) {
    c.docs.push_back({"app" + std::to_string(i), [i](uint64_t s) {
                        return Plain(MakeLog(500, s + 20 + i));
                      }});
    c.docs.push_back({"dna" + std::to_string(i), [i](uint64_t s) {
                        return Plain(MakeDna(8192, s + 30 + i));
                      }});
  }
  for (int i = 0; i < 2; ++i) {
    c.docs.push_back({"prose" + std::to_string(i), [i](uint64_t s) {
                        return Plain(MakeProse(8192, s + 40 + i));
                      }});
  }
  c.patterns = {&LiteralPattern(), &UserPattern(), &Log4Pattern(),
                &MotifPattern()};
  c.nominal_pass_s = 0.125;
  return c;
}

RestartConfig SpillConfig() {
  RestartConfig c;
  c.docs = {{"log", [](uint64_t s) { return Plain(MakeLog(1500, s + 60)); }},
            {"dna", [](uint64_t s) { return Plain(MakeDna(16384, s + 61)); }},
            {"rep", [](uint64_t s) { return Repeat(s + 62); }}};
  const std::vector<const Pattern*> logs = {&LiteralPattern(), &UserPattern(),
                                            &Log4Pattern()};
  c.pairs = LogPairs("log", logs);
  Append(&c.pairs, LogPairs("dna", {&MotifPattern()}));
  Append(&c.pairs, LogPairs("rep", logs));
  c.nominal_round_s = 0.08;
  return c;
}

// Every workload runs the same three configurations; it sets how the run's
// time is split between the phases, so the path it names gets the most
// requests, passes or rounds.
std::optional<Plan> MakePlan(const std::string& workload) {
  Plan p{WireConfig(), CatalogConfig(), SpillConfig()};
  if (workload == "serve") {
    p.serve_share = 0.7, p.corpus_share = 0.15, p.restart_share = 0.15;
  } else if (workload == "corpus") {
    p.serve_share = 0.4, p.corpus_share = 0.45, p.restart_share = 0.15;
  } else if (workload == "restart") {
    p.serve_share = 0.4, p.corpus_share = 0.15, p.restart_share = 0.45;
  } else {
    return std::nullopt;
  }
  return p;
}

// A generated document: its oracle view and its compressed handle.
struct Doc {
  std::string name;
  Text text;
  DocumentPtr handle;
};

// A (document, pattern) pair with its compiled query and oracle count.
struct Pair {
  const Doc* doc;
  const Pattern* pattern;
  Query query;
  uint64_t expected = 0;
};

Doc BuildDoc(const DocSpec& spec, uint64_t seed, const fs::path& dir) {
  Doc d{spec.name, spec.make(seed), nullptr};
  if (d.text.times == 1) {
    Span span("slp.compress");
    slpspan::Result<DocumentPtr> doc = Document::FromText(d.text.block);
    if (!doc.ok()) Die("compress " + spec.name + ": " + doc.status().ToString());
    d.handle = doc.value();
  } else {
    Span span("slp.repeat");
    slpspan::Result<slpspan::Slp> slp =
        slpspan::SlpRepeat(d.text.block, d.text.times);
    if (!slp.ok()) Die("repeat: " + slp.status().ToString());
    d.handle = Document::FromSlp(std::move(slp).value());
  }
  if (d.handle->length() != d.text.length()) Die("length mismatch " + d.name);
  if (Trace::enabled()) {
    slpspan::Slp::Stats st;
    {
      Span span("slp.stats");
      st = d.handle->stats();
    }
    Trace::Add({"slp.size", 0, 0, 0, 0, 0, static_cast<double>(st.paper_size)});
    Trace::Add({"slp.depth", 0, 0, 0, 0, 0, static_cast<double>(st.depth)});
    std::fprintf(stderr, "  doc %-16s |D| %11llu  size(S) %7llu  depth %3u\n",
                 (dir.filename().string() + "/" + spec.name).c_str(),
                 static_cast<unsigned long long>(st.document_length),
                 static_cast<unsigned long long>(st.paper_size), st.depth);
  }
  const slpspan::Status saved =
      d.handle->Save((dir / (spec.name + ".slp")).string());
  if (!saved.ok()) Die("save " + spec.name + ": " + saved.ToString());
  return d;
}

Query Compile(const Pattern& p) {
  Span span("spanner.compile");
  slpspan::Result<Query> q = Query::Compile(p.regex, Alphabet());
  if (!q.ok()) Die("compile " + p.name + ": " + q.status().ToString());
  span.set_value(q.value().num_states());
  if (Trace::enabled()) {
    Trace::Add({"spanner.states", 0, 0, 0, 0, 0,
                static_cast<double>(q.value().num_states())});
  }
  return q.value();
}

const Doc& FindDoc(const std::vector<std::unique_ptr<Doc>>& docs,
                   const std::string& name) {
  for (const auto& d : docs) {
    if (d->name == name) return *d;
  }
  Die("no document " + name);
}

// ---------------------------------------------------------- answer key ----

enum class Op { kCheck = 0, kCount = 1, kExtract = 2 };
constexpr const char* kOpNames[] = {"check", "count", "extract"};

struct Answer {
  bool nonempty = false;
  uint64_t count = 0;
  bool exact = true;
  const std::vector<slpspan::SpanTuple>* tuples = nullptr;
  uint64_t streamed = 0;
};

// Checks one answer against the oracle and records any mismatch.
void Verify(const Pair& pair, Op op, uint64_t limit, const Answer& a,
            const char* path) {
  const std::string where = std::string(path) + " " + kOpNames[int(op)] +
                            " " + pair.doc->name + "/" + pair.pattern->name;
  switch (op) {
    case Op::kCheck:
      if (a.nonempty != (pair.expected > 0)) {
        g_ledger.Wrong(where + ": non-emptiness differs from the oracle");
      }
      return;
    case Op::kCount:
      if (!a.exact || a.count != pair.expected) {
        g_ledger.Wrong(where + ": count " + std::to_string(a.count) +
                       " != oracle " + std::to_string(pair.expected));
      }
      return;
    case Op::kExtract: {
      const uint64_t want = std::min(limit, pair.expected);
      if (a.tuples->size() != want || a.streamed != want) {
        g_ledger.Wrong(where + ": " + std::to_string(a.tuples->size()) +
                       " tuples (" + std::to_string(a.streamed) +
                       " streamed), want " + std::to_string(want));
        return;
      }
      std::set<std::vector<uint64_t>> seen;
      for (const slpspan::SpanTuple& t : *a.tuples) {
        auto spans = Project(*pair.pattern, pair.query.vars(), t);
        if (!spans || !Member(*pair.pattern, pair.doc->text, *spans)) {
          g_ledger.Wrong(where + ": tuple not in the oracle's set");
          return;
        }
        std::vector<uint64_t> key;
        for (const auto& s : *spans) {
          key.push_back(s->begin);
          key.push_back(s->end);
        }
        if (!seen.insert(std::move(key)).second) {
          g_ledger.Wrong(where + ": duplicate tuple");
          return;
        }
      }
    }
  }
}

// -------------------------------------------------------- wire serving ----

struct Request {
  size_t pair = 0;
  Op op = Op::kCount;
  uint64_t limit = 0;
};

// Whole rounds of every (pair, op) combination, shuffled per round, with
// extract limits cycling through kLimits.
std::vector<Request> Schedule(size_t num_pairs, size_t min_requests,
                              uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Request> out;
  size_t limit_at = 0;
  while (out.size() < min_requests || out.empty()) {
    std::vector<Request> round;
    for (size_t p = 0; p < num_pairs; ++p) {
      for (Op op : {Op::kCheck, Op::kCount, Op::kExtract}) {
        round.push_back({p, op, kLimits[limit_at++ % std::size(kLimits)]});
      }
    }
    for (size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng() % i]);
    }
    Append(&out, std::move(round));
  }
  return out;
}

struct Sample {
  size_t pair = 0;
  Op op = Op::kCount;
  uint64_t limit = 0;
  double latency_ms = 0;  ///< due time → Done frame (or Wait return)
  double late_ms = 0;     ///< due time → send
};

uint32_t NumClients() {
  return std::max<uint32_t>(
      1, std::min<uint32_t>(kMaxClients, std::thread::hardware_concurrency()));
}

// Drives `requests` open loop: this thread releases request i at its due
// time t0 + i/rate into a FIFO, and NumClients() client threads (one
// connection each) take requests from it as they become free, so a slow
// request delays only the requests that find every connection busy. The
// latency of a request runs from its due time, which counts the wait. With
// rate 0 every request is due at once (closed loop: each client back to
// back). `issue` performs request i on `client` and returns false on a
// failed operation.
std::vector<Sample> DriveOpenLoop(
    const std::vector<Request>& requests, double rate,
    const std::function<bool(uint32_t client, size_t i)>& issue) {
  const uint32_t clients = NumClients();
  std::vector<std::vector<Sample>> per_client(clients);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, Clock::time_point>> due_queue;
  bool released_all = false;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        std::pair<size_t, Clock::time_point> next;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !due_queue.empty() || released_all; });
          if (due_queue.empty()) return;
          next = due_queue.front();
          due_queue.pop_front();
        }
        const auto [i, listed] = next;
        const Clock::time_point sent = Clock::now();
        const Clock::time_point due = rate > 0 ? listed : sent;
        const bool ok = issue(c, i);
        const Clock::time_point done = Clock::now();
        g_ledger.attempted.fetch_add(1);
        if (!ok) {
          g_ledger.failed.fetch_add(1);
          continue;
        }
        per_client[c].push_back({requests[i].pair, requests[i].op,
                                 requests[i].limit, Seconds(done - due) * 1e3,
                                 Seconds(sent - due) * 1e3});
      }
    });
  }
  const Clock::time_point t0 = Clock::now();
  for (size_t i = 0; i < requests.size(); ++i) {
    Clock::time_point due = t0;
    if (rate > 0) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(double(i) / rate));
      std::this_thread::sleep_until(due);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      due_queue.emplace_back(i, due);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    released_all = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& v : per_client) Append(&all, std::move(v));
  return all;
}

// The p50 of one op class: the geometric mean, over the class's cells (a
// pair for check and count, a pair and limit for extract), of each cell's
// median latency. One cell's latencies have one mode, but the cells' modes
// lie up to two orders of magnitude apart (a q=92 check against a literal
// one), so a median of the pooled latencies falls in a gap between two
// modes, where the few requests that cross it move it by the gap's width.
double ClassP50Ms(const std::vector<Sample>& samples, Op op) {
  std::map<std::pair<size_t, uint64_t>, std::vector<double>> cells;
  for (const Sample& s : samples) {
    if (s.op == op) {
      cells[{s.pair, op == Op::kExtract ? s.limit : 0}].push_back(s.latency_ms);
    }
  }
  double log_sum = 0;
  for (const auto& [cell, latencies] : cells) log_sum += std::log(Median(latencies));
  return cells.empty() ? 0 : std::exp(log_sum / double(cells.size()));
}

struct ServeResult {
  std::vector<Sample> samples;
  double seconds = 0;
};

class ServePhase {
 public:
  ServePhase(const ServeConfig& config, uint64_t seed, const fs::path& dir)
      : config_(config), seed_(seed), dir_(dir) {}

  // Set-up: documents, server, connections, warm-up of every pair.
  void Setup() {
    fs::create_directories(dir_);
    for (const DocSpec& spec : config_.docs) {
      docs_.push_back(std::make_unique<Doc>(BuildDoc(spec, seed_, dir_)));
    }
    for (const PairSpec& ps : config_.pairs) {
      const Doc& doc = FindDoc(docs_, ps.doc);
      pairs_.push_back({&doc, ps.pattern, Compile(*ps.pattern),
                        Count(*ps.pattern, doc.text)});
    }
    slpspan::ServerOptions opts;
    opts.threads = kServerThreads;
    opts.document_root = dir_.string();
    opts.alphabet = Alphabet();
    server_ = std::make_unique<slpspan::Server>(opts);
    const slpspan::Status started = server_->Start();
    if (!started.ok()) Die("server start: " + started.ToString());
    for (uint32_t c = 0; c < NumClients(); ++c) {
      Span span("net.connect");
      auto client = slpspan::net::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) Die("connect: " + client.status().ToString());
      clients_.push_back(std::move(client).value());
    }
    for (size_t p = 0; p < pairs_.size(); ++p) {
      for (Op op : {Op::kCheck, Op::kCount, Op::kExtract}) {
        if (!Wire(0, {p, op, 1}, "warm-up")) Die("warm-up request failed");
      }
    }
  }

  // The timed open-loop wire phase.
  ServeResult Run(double seconds) {
    requests_ = Schedule(pairs_.size(),
                         static_cast<size_t>(config_.rate * seconds),
                         seed_ * 7919 + 1);
    const Clock::time_point t0 = Clock::now();
    ServeResult r;
    r.samples = DriveOpenLoop(requests_, config_.rate, [&](uint32_t c, size_t i) {
      RequestScope scope(i + 1);
      return Wire(c, requests_[i], "wire");
    });
    r.seconds = Seconds(Clock::now() - t0);
    return r;
  }

  // Saturation probe: the same mix closed loop for `seconds`; returns
  // completed requests per second.
  double Saturate(double seconds) {
    requests_ = Schedule(pairs_.size(), 20000, seed_ * 7919 + 2);
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> done{0};
    const Clock::time_point t0 = Clock::now();
    std::thread timer([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      stop = true;
    });
    DriveOpenLoop(requests_, 0, [&](uint32_t c, size_t i) {
      if (stop) return true;
      const bool ok = Wire(c, requests_[i], "saturate");
      done.fetch_add(1);
      return ok;
    });
    const double elapsed = Seconds(Clock::now() - t0);
    timer.join();
    return double(done.load()) / elapsed;
  }

  // Per (pair, op) latency breakdown of a wire run, for the stderr report.
  void Report(const ServeResult& r) const {
    std::map<std::pair<size_t, int>, std::vector<double>> cells;
    for (const Sample& s : r.samples) cells[{s.pair, int(s.op)}].push_back(s.latency_ms);
    for (const auto& [key, v] : cells) {
      const Pair& p = pairs_[key.first];
      std::fprintf(stderr, "    %-4s %-8s %-7s n=%-5zu p50 %8.3f ms  p99 %8.3f ms\n",
                   p.doc->name.c_str(), p.pattern->name.c_str(),
                   kOpNames[key.second], v.size(), Percentile(v, 0.5),
                   Percentile(v, 0.99));
    }
  }

  // Traced replays that split the wire request into layers: the same
  // requests through an in-process Session (no network), then each pair's
  // Engine calls directly.
  void Replay(double seconds) {
    std::vector<std::unique_ptr<Doc>> local;
    std::vector<Pair> pairs;
    for (const auto& d : docs_) {
      Span span("slp.load");
      auto loaded = Document::FromSlpFile((dir_ / (d->name + ".slp")).string());
      if (!loaded.ok()) Die("load: " + loaded.status().ToString());
      local.push_back(std::make_unique<Doc>(Doc{d->name, d->text, loaded.value()}));
    }
    for (const Pair& p : pairs_) {
      Pair q = p;
      q.doc = &FindDoc(local, p.doc->name);
      {
        Span span("core.prepare");
        (void)q.doc->handle->PreparedFor(q.query);
      }
      pairs.push_back(q);
    }
    // Session replay of a prefix of the wire schedule, same rate.
    const size_t n = std::min(
        requests_.size(), static_cast<size_t>(config_.rate * seconds * 0.5));
    const std::vector<Request> prefix(requests_.begin(), requests_.begin() + n);
    slpspan::Session session(slpspan::SessionOptions{.num_threads = kServerThreads});
    DriveOpenLoop(prefix, config_.rate, [&](uint32_t, size_t i) {
      RequestScope scope(i + 1);
      return InProcess(session, pairs[prefix[i].pair], prefix[i]);
    });
    // Direct Engine calls, round robin over the pairs.
    const Clock::time_point end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds * 0.5));
    do {
      for (const Pair& p : pairs) EngineCalls(p);
    } while (Clock::now() < end);
  }

  void Stop() {
    clients_.clear();
    if (server_) server_->Stop();
    server_.reset();
  }

 private:
  bool Wire(uint32_t c, const Request& req, const char* path) {
    const Pair& pair = pairs_[req.pair];
    slpspan::net::CallOptions opts;
    opts.priority = static_cast<uint8_t>(
        req.op == Op::kExtract ? slpspan::Priority::kBatch
                               : slpspan::Priority::kInteractive);
    if (req.op == Op::kExtract) opts.limit = req.limit;
    static constexpr const char* kSpan[] = {"net.check", "net.count",
                                            "net.extract"};
    slpspan::Result<slpspan::net::CallResult> r = [&] {
      Span span(kSpan[int(req.op)]);
      auto result = clients_[c].Call(static_cast<slpspan::net::WireOp>(req.op),
                                     pair.doc->name, pair.pattern->regex, opts);
      if (result.ok()) span.set_value(double(result.value().tuples.size()));
      return result;
    }();
    if (!r.ok() || !r.value().ok()) {
      std::fprintf(stderr, "perfbench: %s request failed: %s\n", path,
                   r.ok() ? r.value().message.c_str()
                          : r.status().ToString().c_str());
      return false;
    }
    const slpspan::net::CallResult& cr = r.value();
    Verify(pair, req.op, req.limit,
           {cr.nonempty, cr.count_value, cr.count_exact, &cr.tuples,
            cr.tuples_streamed},
           path);
    return true;
  }

  bool InProcess(const slpspan::Session& session, const Pair& pair,
                 const Request& req) {
    slpspan::EngineRequest er{pair.query, pair.doc->handle,
                              slpspan::EngineRequest::Op::kCount, std::nullopt};
    er.op = req.op == Op::kCheck   ? slpspan::EngineRequest::Op::kIsNonEmpty
            : req.op == Op::kCount ? slpspan::EngineRequest::Op::kCount
                                   : slpspan::EngineRequest::Op::kExtract;
    if (req.op == Op::kExtract) er.limit = req.limit;
    slpspan::SubmitOptions so;
    so.priority = req.op == Op::kExtract ? slpspan::Priority::kBatch
                                         : slpspan::Priority::kInteractive;
    std::optional<slpspan::Result<slpspan::EngineOutput>> out;
    std::optional<std::chrono::microseconds> queued;
    {
      Span span("runtime.session");
      slpspan::Ticket ticket = session.Submit(std::move(er), so);
      out = ticket.Wait();
      queued = ticket.queue_latency();
    }
    if (queued) {
      Trace::Add({"runtime.queue", 0, 0, 0, 0, 0, double(queued->count())});
    }
    if (!out->ok()) return false;
    const slpspan::EngineOutput& o = out->value();
    Verify(pair, req.op, req.limit,
           {o.nonempty, o.count.value, o.count.exact, &o.tuples,
            o.tuples_streamed},
           "session");
    return true;
  }

  static void EngineCalls(const Pair& p) {
    Engine engine(p.query, p.doc->handle);
    {
      Span span("core.check");
      (void)engine.IsNonEmpty();
    }
    {
      Span span("core.count");
      (void)engine.Count();
    }
    std::optional<slpspan::ResultStream> stream;
    {
      Span span("core.first_tuple");
      stream.emplace(engine.Extract({.limit = 512}));
      (void)stream->Valid();
    }
    while (stream->Valid()) {
      Span span("core.delay");
      stream->Next();
    }
  }

  const ServeConfig& config_;
  const uint64_t seed_;
  const fs::path dir_;
  std::vector<std::unique_ptr<Doc>> docs_;
  std::vector<Pair> pairs_;
  std::unique_ptr<slpspan::Server> server_;
  std::vector<slpspan::net::Client> clients_;
  std::vector<Request> requests_;
};

// --------------------------------------------------------- corpus query ----

class CorpusPhase {
 public:
  CorpusPhase(const CorpusConfig& config, uint64_t seed, const fs::path& dir)
      : config_(config), seed_(seed), dir_(dir) {}

  void Setup() {
    fs::create_directories(dir_);
    for (const DocSpec& spec : config_.docs) {
      docs_.push_back(std::make_unique<Doc>(BuildDoc(spec, seed_, dir_)));
      docs_.back()->handle.reset();  // every pass reloads from disk
    }
    for (const Pattern* p : config_.patterns) {
      queries_.push_back(Compile(*p));
      std::map<std::string, uint64_t> expected;
      for (const auto& d : docs_) expected[d->name + ".slp"] = Count(*p, d->text);
      expected_.push_back(std::move(expected));
    }
    Span span("corpus.open");
    auto corpus = slpspan::Corpus::Open(dir_.string());
    if (!corpus.ok()) Die("corpus open: " + corpus.status().ToString());
    corpus_ = std::move(corpus).value();
    if (corpus_->documents().size() != docs_.size()) Die("catalog size");
  }

  // `passes` whole passes of every pattern over the catalog; returns each
  // pass's wall time.
  std::vector<double> Run(size_t passes) {
    std::vector<double> times;
    for (size_t n = 0; n < passes; ++n) {
      const Clock::time_point t0 = Clock::now();
      uint64_t delivered = 0;
      {
        Span span("corpus.pass");
        for (size_t q = 0; q < queries_.size(); ++q) delivered += Eval(q);
        span.set_value(double(delivered));
      }
      times.push_back(Seconds(Clock::now() - t0));
      if (Trace::enabled()) {
        Trace::Add({"corpus.skipped", 0, 0, 0, 0, 0,
                    double(docs_.size() * queries_.size() - delivered)});
      }
    }
    return times;
  }

  // Traced replay: each document loaded and prepared on a fresh handle.
  void Replay() {
    for (const auto& d : docs_) {
      for (const Query& q : queries_) {
        DocumentPtr doc;
        {
          Span span("slp.load");
          auto loaded = Document::FromSlpFile((dir_ / (d->name + ".slp")).string());
          if (!loaded.ok()) Die("load: " + loaded.status().ToString());
          doc = loaded.value();
        }
        Span span("core.prepare");
        (void)doc->PreparedFor(q);
      }
    }
  }

 private:
  uint64_t Eval(size_t q) {
    const Pattern& pattern = *config_.patterns[q];
    std::set<std::string> delivered;
    Span span("corpus.eval");
    const slpspan::Status st = corpus_->Eval(
        queries_[q], slpspan::EngineRequest::Op::kCount,
        {.threads = kCorpusThreads},
        [&](const slpspan::CorpusDocResult& r) {
          g_ledger.attempted.fetch_add(1);
          delivered.insert(r.name);
          if (!r.output.ok()) {
            g_ledger.failed.fetch_add(1);
            return true;
          }
          auto it = expected_[q].find(r.name);
          const slpspan::CountInfo& c = r.output.value().count;
          if (it == expected_[q].end() || !c.exact || c.value != it->second) {
            g_ledger.Wrong("corpus count " + r.name + "/" + pattern.name);
          }
          return true;
        });
    if (!st.ok()) Die("corpus eval: " + st.ToString());
    for (const auto& [name, count] : expected_[q]) {
      if (delivered.count(name)) continue;
      g_ledger.attempted.fetch_add(1);  // skipped by the pre-filter
      if (count != 0) {
        g_ledger.Wrong("corpus skipped " + name + "/" + pattern.name +
                       " which has matches");
      }
    }
    span.set_value(double(delivered.size()));
    return delivered.size();
  }

  const CorpusConfig& config_;
  const uint64_t seed_;
  const fs::path dir_;
  std::vector<std::unique_ptr<Doc>> docs_;
  std::vector<Query> queries_;
  std::vector<std::map<std::string, uint64_t>> expected_;
  std::unique_ptr<slpspan::Corpus> corpus_;
};

// ------------------------------------------------------- warm restarts ----

struct ChildRun {
  double answered_s = 0;  ///< spawn → "done" line
  double maxrss_mib = 0;
  std::vector<std::string> lines;
  bool ok = false;
};

std::string SelfExe() {
  std::vector<char> buf(4096);
  const ssize_t n = readlink("/proc/self/exe", buf.data(), buf.size() - 1);
  if (n <= 0) Die("cannot resolve own executable");
  return std::string(buf.data(), static_cast<size_t>(n));
}

ChildRun Spawn(const std::vector<std::string>& args) {
  ChildRun run;
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) Die("pipe");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const Clock::time_point t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    Die("spawn failed");
  }
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line == "done") run.answered_s = Seconds(Clock::now() - t0);
      run.lines.push_back(std::move(line));
    }
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  run.maxrss_mib = double(ru.ru_maxrss) / 1024.0;
  run.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0 && run.answered_s > 0;
  return run;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

struct RestartRound {
  double spill_write_s = 0;
  double spill_mib = 0;
  double restart_s = 0;
  double maxrss_mib = 0;
};

class RestartPhase {
 public:
  RestartPhase(const RestartConfig& config, uint64_t seed, const fs::path& dir)
      : config_(config), seed_(seed), dir_(dir) {}

  // Set-up: documents and the cold preparation of every pair (answered
  // once in process: the "before" answers a restart must reproduce).
  void Setup() {
    fs::create_directories(dir_);
    for (const DocSpec& spec : config_.docs) {
      docs_.push_back(std::make_unique<Doc>(BuildDoc(spec, seed_, dir_)));
      // Serve from the saved file, as a server does: the spilled bundles
      // are keyed by the loaded grammar's fingerprint, which is what the
      // restarted process computes from the same file.
      Span span("slp.load");
      auto loaded = Document::FromSlpFile((dir_ / (spec.name + ".slp")).string());
      if (!loaded.ok()) Die("load: " + loaded.status().ToString());
      docs_.back()->handle = loaded.value();
    }
    std::ofstream manifest(dir_ / "manifest");
    for (const PairSpec& ps : config_.pairs) {
      const Doc& doc = FindDoc(docs_, ps.doc);
      Pair p{&doc, ps.pattern, Compile(*ps.pattern), Count(*ps.pattern, doc.text)};
      {
        Span span("core.prepare");
        (void)doc.handle->PreparedFor(p.query);
      }
      slpspan::Result<slpspan::CountInfo> c = Engine(p.query, doc.handle).Count();
      if (!c.ok()) Die("cold count: " + c.status().ToString());
      before_.push_back(c.value().value);
      Verify(p, Op::kCount, 0, {false, c.value().value, c.value().exact, nullptr, 0},
             "before-restart");
      manifest << (dir_ / (doc.name + ".slp")).string() << '\t'
               << ps.pattern->name << '\n';
      pairs_.push_back(std::move(p));
    }
  }

  std::vector<RestartRound> Run(size_t num_rounds) {
    std::vector<RestartRound> rounds;
    const std::string exe = SelfExe();
    for (size_t n = 0; n < num_rounds; ++n) {
      const fs::path spill = dir_ / ("spill" + std::to_string(n));
      RestartRound round;
      {
        const slpspan::Status st =
            slpspan::Runtime::ConfigureSpill({.directory = spill.string()});
        if (!st.ok()) Die("spill: " + st.ToString());
        Span span("storage.spill");
        const Clock::time_point t0 = Clock::now();
        slpspan::Runtime::SpillResident();
        slpspan::Runtime::FlushSpill();
        round.spill_write_s = Seconds(Clock::now() - t0);
      }
      (void)slpspan::Runtime::ConfigureSpill({});
      round.spill_mib = double(DirBytes(spill)) / (1024.0 * 1024.0);
      g_ledger.attempted.fetch_add(1);
      ChildRun child;
      {
        Span span("restart.child");
        child = Spawn({exe, "--restart-child", (dir_ / "manifest").string(),
                       spill.string(), Trace::enabled() ? "1" : "0"});
      }
      if (!child.ok) {
        g_ledger.failed.fetch_add(1);
        std::fprintf(stderr, "perfbench: restarted process failed\n");
      } else {
        CheckChild(child);
      }
      round.restart_s = child.answered_s;
      round.maxrss_mib = child.maxrss_mib;
      rounds.push_back(round);
      fs::remove_all(spill);
    }
    return rounds;
  }

  // Traced replay: export every pair's bundle.
  void Replay() {
    const fs::path bundles = dir_ / "bundles";
    fs::create_directories(bundles);
    int i = 0;
    for (const Pair& p : pairs_) {
      const fs::path path = bundles / (std::to_string(i++) + ".prep");
      Span span("storage.save");
      const slpspan::Status st = p.doc->handle->SavePrepared(p.query, path.string());
      if (!st.ok()) Die("save prepared: " + st.ToString());
      span.set_value(double(fs::file_size(path)));
    }
  }

  void Release() {
    pairs_.clear();
    docs_.clear();
  }

 private:
  void CheckChild(const ChildRun& child) {
    size_t answered = 0;
    for (const std::string& line : child.lines) {
      std::istringstream in(line);
      std::string kind;
      in >> kind;
      if (kind == "answer") {
        size_t i = 0;
        uint64_t value = 0;
        in >> i >> value;
        g_ledger.attempted.fetch_add(1);
        if (i >= pairs_.size() || value != before_[i] ||
            value != pairs_[i].expected) {
          g_ledger.Wrong("restart answer " + std::to_string(i) +
                         " differs from the oracle or the pre-restart answer");
        }
        ++answered;
      } else if (kind == "cold") {
        g_ledger.Wrong("restart: pair " + line.substr(5) +
                       " has no bundle in the spill directory and was "
                       "prepared cold");
      } else if (kind == "span") {
        SpanRecord r;
        int64_t dur = 0;
        in >> r.name >> dur >> r.value;
        r.end_ns = dur;
        Trace::Add(std::move(r));
      }
    }
    if (answered != pairs_.size()) g_ledger.Wrong("restart: missing answers");
  }

  const RestartConfig& config_;
  const uint64_t seed_;
  const fs::path dir_;
  std::vector<std::unique_ptr<Doc>> docs_;
  std::vector<Pair> pairs_;
  std::vector<uint64_t> before_;
};

// The restarted process: open the spill directory, load the .slp files and
// answer one count per pair. Prints "answer <i> <count>" lines, then (when
// traced) "span <name> <duration_ns> <value>" lines, then "done", then, after
// the timed part, "cold <i>" for every pair whose bundle is not in the spill
// directory under the name this process looks it up by: that pair was
// prepared from scratch, so the restart did not start warm.
int RestartChild(const std::string& manifest, const std::string& spill,
                 bool traced) {
  Trace::Enable(traced);
  const slpspan::Status st = slpspan::Runtime::ConfigureSpill({.directory = spill});
  if (!st.ok()) Die("restart: spill: " + st.ToString());
  std::ifstream in(manifest);
  std::map<std::string, DocumentPtr> docs;
  std::map<std::string, Query> queries;
  std::vector<std::pair<const DocumentPtr*, const Query*>> asked;
  std::string line;
  std::ostringstream out;
  size_t i = 0;
  for (; std::getline(in, line); ++i) {
    const size_t tab = line.find('\t');
    const std::string path = line.substr(0, tab);
    const std::string name = line.substr(tab + 1);
    if (!docs.count(path)) {
      Span span("slp.load");
      auto d = Document::FromSlpFile(path);
      if (!d.ok()) Die("restart: load " + path + ": " + d.status().ToString());
      docs[path] = d.value();
    }
    if (!queries.count(name)) {
      const Pattern* p = nullptr;
      for (const Pattern* c : {&LiteralPattern(), &UserPattern(), &Log4Pattern(),
                               &MotifPattern()}) {
        if (c->name == name) p = c;
      }
      if (p == nullptr) Die("restart: unknown pattern " + name);
      queries.emplace(name, Compile(*p));
    }
    const DocumentPtr& doc = docs[path];
    const Query& q = queries.at(name);
    asked.emplace_back(&doc, &q);
    if (traced) {
      Span span("storage.load");
      const std::string bundle =
          spill + "/" + slpspan::Runtime::SpillBundleName(*doc, q);
      const slpspan::Status loaded = doc->LoadPrepared(q, bundle);
      if (!loaded.ok()) Die("restart: load prepared " + bundle + ": " + loaded.ToString());
    }
    slpspan::Result<slpspan::CountInfo> c = Engine(q, doc).Count();
    if (!c.ok()) Die("restart: count: " + c.status().ToString());
    out << "answer " << i << ' ' << c.value().value << '\n';
  }
  std::fputs(out.str().c_str(), stdout);
  for (const SpanRecord& r : Trace::Collect()) {
    std::printf("span %s %lld %.17g\n", r.name.c_str(),
                static_cast<long long>(r.end_ns - r.start_ns), r.value);
  }
  std::printf("done\n");
  for (size_t p = 0; p < asked.size(); ++p) {
    const auto& [doc, q] = asked[p];
    if (!fs::is_regular_file(fs::path(spill) /
                             slpspan::Runtime::SpillBundleName(**doc, *q))) {
      std::printf("cold %zu\n", p);
    }
  }
  std::fflush(stdout);
  return 0;
}

// ------------------------------------------------------------- metrics ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct SpanIndex {
  std::map<std::string, std::vector<const SpanRecord*>> by_name;
  explicit SpanIndex(const std::vector<SpanRecord>& spans) {
    for (const SpanRecord& s : spans) by_name[s.name].push_back(&s);
  }
  std::vector<double> Durations(const std::string& name, double scale) const {
    std::vector<double> v;
    auto it = by_name.find(name);
    if (it == by_name.end()) return v;
    for (const SpanRecord* s : it->second) {
      v.push_back(double(s->end_ns - s->start_ns) / scale);
    }
    return v;
  }
  std::vector<double> Values(const std::string& name) const {
    std::vector<double> v;
    auto it = by_name.find(name);
    if (it == by_name.end()) return v;
    for (const SpanRecord* s : it->second) v.push_back(s->value);
    return v;
  }
};

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Max(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

std::vector<Metric> LayerMetrics(const std::vector<SpanRecord>& spans) {
  const SpanIndex ix(spans);
  constexpr double kMs = 1e6, kUs = 1e3, kNs = 1;
  std::vector<Metric> m;
  m.push_back({"slp.compress_ms", Sum(ix.Durations("slp.compress", kMs)), "ms"});
  m.push_back({"slp.load_ms", Median(ix.Durations("slp.load", kMs)), "ms"});
  m.push_back({"slp.size", Sum(ix.Values("slp.size")), "count"});
  m.push_back({"slp.depth", Max(ix.Values("slp.depth")), "count"});
  m.push_back({"spanner.compile_ms", Median(ix.Durations("spanner.compile", kMs)), "ms"});
  m.push_back({"spanner.states", Max(ix.Values("spanner.states")), "count"});
  m.push_back({"core.prepare_ms", Median(ix.Durations("core.prepare", kMs)), "ms"});
  m.push_back({"core.check_ms", Median(ix.Durations("core.check", kMs)), "ms"});
  m.push_back({"core.count_us", Median(ix.Durations("core.count", kUs)), "us"});
  m.push_back({"core.first_tuple_us", Median(ix.Durations("core.first_tuple", kUs)), "us"});
  const std::vector<double> delay = ix.Durations("core.delay", kNs);
  m.push_back({"core.delay_ns_p50", Percentile(delay, 0.5), "ns"});
  m.push_back({"core.delay_ns_p99", Percentile(delay, 0.99), "ns"});
  const std::vector<double> session = ix.Durations("runtime.session", kUs);
  m.push_back({"runtime.session_us_p50", Percentile(session, 0.5), "us"});
  m.push_back({"runtime.session_us_p99", Percentile(session, 0.99), "us"});
  m.push_back({"runtime.queue_us_p99", Percentile(ix.Values("runtime.queue"), 0.99), "us"});
  m.push_back({"storage.save_ms", Median(ix.Durations("storage.save", kMs)), "ms"});
  const std::vector<double> bundles = ix.Values("storage.save");
  m.push_back({"storage.bundle_kib",
               bundles.empty() ? 0 : Sum(bundles) / double(bundles.size()) / 1024.0,
               "KiB"});
  m.push_back({"storage.load_ms", Median(ix.Durations("storage.load", kMs)), "ms"});
  m.push_back({"net.connect_ms", Median(ix.Durations("net.connect", kMs)), "ms"});
  // Wire minus in-process latency of the same request (matched by id).
  std::map<uint64_t, double> wire;
  for (const char* name : {"net.check", "net.count", "net.extract"}) {
    auto it = ix.by_name.find(name);
    if (it == ix.by_name.end()) continue;
    for (const SpanRecord* s : it->second) {
      if (s->request != 0) wire[s->request] = double(s->end_ns - s->start_ns);
    }
  }
  std::vector<double> overhead;
  if (auto it = ix.by_name.find("runtime.session"); it != ix.by_name.end()) {
    for (const SpanRecord* s : it->second) {
      auto w = wire.find(s->request);
      if (w != wire.end()) {
        overhead.push_back((w->second - double(s->end_ns - s->start_ns)) / kUs);
      }
    }
  }
  m.push_back({"net.overhead_us_p50", Percentile(overhead, 0.5), "us"});
  const double extract_s = Sum(ix.Durations("net.extract", 1e9));
  m.push_back({"net.stream_tuples_per_s",
               extract_s > 0 ? Sum(ix.Values("net.extract")) / extract_s : 0, "1/s"});
  m.push_back({"corpus.open_ms", Median(ix.Durations("corpus.open", kMs)), "ms"});
  const double evaluated = Median(ix.Values("corpus.pass"));
  m.push_back({"corpus.docs_evaluated", evaluated, "count"});
  m.push_back({"corpus.docs_skipped", Median(ix.Values("corpus.skipped")), "count"});
  m.push_back({"corpus.ms_per_evaluated_doc",
               evaluated > 0 ? Median(ix.Durations("corpus.pass", kMs)) / evaluated : 0,
               "ms"});
  return m;
}

double CpuSeconds(int who) {
  struct rusage ru {};
  getrusage(who, &ru);
  return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
         double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

// Resident set right now (for the stderr report: where memory goes between
// phases).
double CurrentRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double PeakRssMib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

void PrintJson(bool correct, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(g_ledger.attempted.load()),
              static_cast<unsigned long long>(g_ledger.failed.load()));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ----------------------------------------------------------------- main ----

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double saturate = 0;  ///< > 0: only measure the serve mix's saturation
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--saturate") {
      a.saturate = std::stod(v);
    } else {
      Die("unknown flag " + k);
    }
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  if (argc == 5 && std::string(argv[1]) == "--restart-child") {
    return RestartChild(argv[2], argv[3], std::string(argv[4]) == "1");
  }
  const Args args = ParseArgs(argc, argv);
  std::optional<Plan> plan = MakePlan(args.workload);
  if (!plan) Die("unknown workload '" + args.workload + "'");
  Trace::Enable(args.trace);

  const fs::path work =
      fs::path(".bench_work") / ("run-" + std::to_string(getpid()));
  fs::remove_all(work);
  fs::create_directories(work);

  // ---- set-up (cold, from the process's start) ----
  ServePhase serve(plan->serve, args.seed, work / "serve");
  CorpusPhase corpus(plan->corpus, args.seed, work / "corpus");
  RestartPhase restart(plan->restart, args.seed, work / "restart");
  restart.Setup();
  corpus.Setup();
  serve.Setup();
  const double setup_s = Seconds(Clock::now() - process_start);

  if (args.saturate > 0) {
    const double rps = serve.Saturate(args.saturate);
    serve.Stop();
    fs::remove_all(work);
    std::printf("saturation %s: %.1f req/s closed loop, %u connections\n",
                args.workload.c_str(), rps, NumClients());
    return 0;
  }

  // ---- timed phases ----
  const double scale = args.trace ? kTracedPhaseShare : 1.0;
  const double cpu0 = CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN);
  // Resident and peak resident MiB after each phase, for the stderr report.
  std::vector<std::pair<double, double>> rss = {{CurrentRssMib(), PeakRssMib()}};
  // The corpus passes run in two halves, one before the wire phase and one
  // before the restart phase: on a virtual host the cost of waking an idle
  // vCPU depends on how busy the machine was in the seconds before (every
  // wire p50 ~40 % lower in a process started after 15 s of idling than in
  // one started right after another run), so the two latency-bound phases
  // each follow the same CPU-bound load.
  const size_t num_passes = Rounds(args.seconds * plan->corpus_share * scale,
                                   plan->corpus.nominal_pass_s);
  std::vector<double> passes = corpus.Run(num_passes / 2);
  rss.emplace_back(CurrentRssMib(), PeakRssMib());
  const ServeResult wire = serve.Run(args.seconds * plan->serve_share * scale);
  if (args.trace) serve.Replay(args.seconds * plan->serve_share * (1 - scale));
  serve.Stop();
  rss.emplace_back(CurrentRssMib(), PeakRssMib());
  Append(&passes, corpus.Run(num_passes - num_passes / 2));
  if (args.trace) corpus.Replay();
  // The server is stopped, so the restart pairs are all that is resident.
  const std::vector<RestartRound> rounds = restart.Run(Rounds(
      args.seconds * plan->restart_share * scale, plan->restart.nominal_round_s));
  if (args.trace) restart.Replay();
  restart.Release();
  const double cpu_s =
      CpuSeconds(RUSAGE_SELF) + CpuSeconds(RUSAGE_CHILDREN) - cpu0;
  rss.emplace_back(CurrentRssMib(), PeakRssMib());
  std::fprintf(stderr,
               "perfbench: resident (peak) MiB after set-up %.1f (%.1f), corpus "
               "1st half %.1f (%.1f), wire %.1f (%.1f), restart %.1f (%.1f)\n",
               rss[0].first, rss[0].second, rss[1].first, rss[1].second,
               rss[2].first, rss[2].second, rss[3].first, rss[3].second);

  // ---- report ----
  std::vector<double> by_op[3], late;
  for (const Sample& s : wire.samples) {
    by_op[int(s.op)].push_back(s.latency_ms);
    late.push_back(s.late_ms);
  }
  std::vector<double> spill_write, spill_mib, restart_s, child_rss;
  for (const RestartRound& r : rounds) {
    spill_write.push_back(r.spill_write_s);
    spill_mib.push_back(r.spill_mib);
    restart_s.push_back(r.restart_s);
    child_rss.push_back(r.maxrss_mib);
  }
  std::vector<Metric> e2e = {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", std::max(PeakRssMib(), Max(child_rss)), "MiB"},
      {"cpu_s", cpu_s, "s"},
      {"check_p50_ms", ClassP50Ms(wire.samples, Op::kCheck), "ms"},
      {"count_p50_ms", ClassP50Ms(wire.samples, Op::kCount), "ms"},
      {"extract_p50_ms", ClassP50Ms(wire.samples, Op::kExtract), "ms"},
      {"corpus_query_s", Median(passes), "s"},
      {"spill_write_s", Median(spill_write), "s"},
      {"spill_mib", Median(spill_mib), "MiB"},
      {"restart_s", Median(restart_s), "s"},
  };
  std::fprintf(stderr,
               "perfbench %s seed=%llu trace=%d: %zu wire requests in %.2f s "
               "(offered %.0f/s; %zu/%zu/%zu check/count/extract; generator "
               "late p50 %.3f ms, p99 %.3f ms), %zu corpus passes, %zu "
               "restarts\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               int(args.trace), wire.samples.size(), wire.seconds,
               plan->serve.rate, by_op[0].size(), by_op[1].size(),
               by_op[2].size(), Percentile(late, 0.5), Percentile(late, 0.99),
               passes.size(), rounds.size());
  serve.Report(wire);
  // The wire p99s are reported but not part of the JSON result: on a
  // shared virtual host they measure scheduler stalls more than the program
  // (see README.md, "Steadiness").
  for (int op = 0; op < 3; ++op) {
    std::fprintf(stderr, "  %s_p99_ms %25.6g ms (not gated)\n", kOpNames[op],
                 Percentile(by_op[op], 0.99));
  }
  for (const Metric& m : e2e) {
    std::fprintf(stderr, "  %-24s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  std::vector<Metric> out = e2e;
  if (args.trace) {
    fs::create_directories(".bench_out");
    const std::string path = ".bench_out/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!Trace::WriteJsonl(path)) Die("cannot write " + path);
    out = LayerMetrics(Trace::Collect());
    for (const Metric& m : out) {
      std::fprintf(stderr, "  %-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  fs::remove_all(work);
  std::error_code ec;
  fs::remove(".bench_work", ec);  // only when no other run is using it

  const bool correct = g_ledger.correct();
  for (const std::string& w : g_ledger.wrong) {
    std::fprintf(stderr, "perfbench: WRONG: %s\n", w.c_str());
  }
  PrintJson(correct, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
