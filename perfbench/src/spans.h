// The benchmark's own span recorder. In a traced run every call the
// benchmark makes into a layer is wrapped in a Span named "<layer>.<call>";
// spans are kept in per-thread memory and written out once, at the end, in
// the chrome://tracing format the program's --trace-dump also uses. Nothing
// is recorded in an untraced run (one branch per span).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;  ///< the benchmark operation the span belongs to
  uint32_t thread = 0;
};

namespace spans {

void Enable(bool on);
bool Enabled();
/// Microseconds since the recorder's anchor (process start).
double NowMicros();

/// Every span recorded so far, from every thread.
std::vector<SpanRecord> Collect();
/// Chrome trace JSON of \p records.
std::string ToChromeJson(const std::vector<SpanRecord>& records);
/// Self time per layer (the span name's first component), in ms: a span's
/// duration minus the time its child spans cover.
std::map<std::string, double> SelfMillisByLayer(
    const std::vector<SpanRecord>& records);
/// Durations (us) of every span named \p name.
std::vector<double> Durations(const std::vector<SpanRecord>& records,
                              const std::string& name);

}  // namespace spans

/// RAII span; a no-op unless spans::Enable(true) was called.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool on_ = false;
  uint64_t prev_parent_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
