// Benchmark-side spans: recorded around calls into the wlansim modules from
// the benchmark's own code (nothing inside src/ is instrumented). Spans
// stay in memory and are written out once, when the run ends. With tracing
// off a Span reads no clock and records nothing.
#pragma once

#include <cstdint>
#include <filesystem>

namespace wlbench {

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();
inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

/// Process-wide tracing switch and span buffer.
void set_tracing(bool on);
bool tracing();
/// Write every span as one JSON object per line; false on I/O failure.
bool write_spans(const std::filesystem::path& path);

/// A span around a call. `parent` is the span open on the same thread when
/// it began; `rid` groups the spans of one request; `work` is the amount
/// of work it covered (samples, packets, calls, bits), the divisor of
/// per-unit layer metrics. `name` is kept by pointer: pass a literal.
class Span {
 public:
  explicit Span(const char* name, double work = 0.0, std::uint64_t rid = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_work(double work) { work_ = work; }

 private:
  const char* name_;
  double work_;
  std::uint64_t rid_;
  std::uint64_t id_ = 0;      ///< 0 when tracing was off at construction
  std::uint64_t parent_ = 0;
  std::int64_t t0_ = 0;
};

}  // namespace wlbench
