#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

// Per-thread buffers are owned by the registry, so spans survive the exit
// of the thread that recorded them.
std::mutex g_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>>& Buffers() {
  static auto* buffers =
      new std::vector<std::unique_ptr<std::vector<SpanRecord>>>();
  return *buffers;
}

std::vector<SpanRecord>& ThreadBuffer() {
  thread_local std::vector<SpanRecord>* buffer = [] {
    std::lock_guard<std::mutex> lock(g_mu);
    Buffers().push_back(std::make_unique<std::vector<SpanRecord>>());
    return Buffers().back().get();
  }();
  return *buffer;
}

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Trace::Enable(bool on) { g_enabled.store(on); }
bool Trace::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void Trace::Add(SpanRecord record) {
  record.id = g_next_id.fetch_add(1);
  ThreadBuffer().push_back(std::move(record));
}

std::vector<SpanRecord> Trace::Collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  return all;
}

bool Trace::WriteJsonl(const std::string& path) {
  std::ofstream out(path);
  for (const SpanRecord& r : Collect()) {
    out << "{\"name\":\"" << Escape(r.name) << "\",\"start_ns\":" << r.start_ns
        << ",\"end_ns\":" << r.end_ns << ",\"id\":" << r.id
        << ",\"parent\":" << r.parent << ",\"request\":" << r.request
        << ",\"value\":" << r.value << "}\n";
  }
  return static_cast<bool>(out);
}

Span::Span(const char* name) : name_(name) {
  if (!Trace::enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  const int64_t end = NowNs();
  t_current_span = parent_;
  ThreadBuffer().push_back(SpanRecord{name_, start_ns_, end, id_, parent_,
                                      t_current_request, value_});
}

RequestScope::RequestScope(uint64_t request) : saved_(t_current_request) {
  t_current_request = request;
}

RequestScope::~RequestScope() { t_current_request = saved_; }

}  // namespace perfbench
