#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_anchor = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> records;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::shared_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    created->thread = g_next_thread.fetch_add(1);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(created);
    return created;
  }();
  return *buffer;
}

thread_local uint64_t t_parent = 0;

std::string Layer(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

}  // namespace

namespace spans {

void Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

double NowMicros() {
  return std::chrono::duration<double, std::micro>(Clock::now() - g_anchor)
      .count();
}

std::vector<SpanRecord> Collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return all;
}

std::string ToChromeJson(const std::vector<SpanRecord>& records) {
  std::string out = "{\"traceEvents\":[";
  char line[512];
  for (size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,\"parent\":%llu,"
                  "\"op\":%llu}}",
                  i == 0 ? "" : ",", r.name, r.start_us, r.end_us - r.start_us,
                  r.thread, static_cast<unsigned long long>(r.id),
                  static_cast<unsigned long long>(r.parent),
                  static_cast<unsigned long long>(r.op));
    out += line;
  }
  out += "\n]}\n";
  return out;
}

std::map<std::string, double> SelfMillisByLayer(
    const std::vector<SpanRecord>& records) {
  // Children run on their parent's thread and nest inside it, so the time
  // they cover is the sum of their durations.
  std::unordered_map<uint64_t, double> child_us;
  for (const SpanRecord& r : records) {
    if (r.parent != 0) child_us[r.parent] += r.end_us - r.start_us;
  }
  std::map<std::string, double> self;
  for (const SpanRecord& r : records) {
    double covered = 0;
    if (auto it = child_us.find(r.id); it != child_us.end()) covered = it->second;
    self[Layer(r.name)] += (r.end_us - r.start_us - covered) / 1000.0;
  }
  return self;
}

std::vector<double> Durations(const std::vector<SpanRecord>& records,
                              const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& r : records) {
    if (name == r.name) out.push_back(r.end_us - r.start_us);
  }
  return out;
}

}  // namespace spans

Span::Span(const char* name, uint64_t op) {
  if (!spans::Enabled()) return;
  on_ = true;
  record_.name = name;
  record_.op = op;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_parent;
  prev_parent_ = t_parent;
  t_parent = record_.id;
  record_.start_us = spans::NowMicros();
}

Span::~Span() {
  if (!on_) return;
  record_.end_us = spans::NowMicros();
  t_parent = prev_parent_;
  // Only the owning thread appends; Collect() runs after every traced
  // thread has been joined.
  ThreadBuffer& buffer = LocalBuffer();
  record_.thread = buffer.thread;
  buffer.records.push_back(record_);
}

}  // namespace perfbench
