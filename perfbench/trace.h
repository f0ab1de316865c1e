// Spans recorded by the benchmark's own code around the calls it makes into
// each layer. They are kept in memory and written out once, at the end of a
// traced run; nothing here is compiled into the CQoS libraries.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `v`; 0 when it is empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// One timed interval. `call` is the id shared by every span of one
/// benchmark call (0 for probe spans); `parent` is the enclosing span's id.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t call = 0;
  const char* name = "";  // always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanStore {
 public:
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(const Span& s) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(s);
  }
  std::vector<Span> snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }
  /// One line per span: id parent call name start_ns end_ns.
  bool write(const std::string& path) const;

 private:
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Process-wide tracing state shared by the caller loop and the wrapper
/// servant. There is one caller, so the in-flight call identifies the parent
/// of every servant dispatch that starts while it runs.
struct TraceState {
  std::atomic<bool> on{false};
  std::atomic<std::uint64_t> call{0};
  std::atomic<std::uint64_t> call_span{0};
  SpanStore spans;
};

TraceState& trace_state();

}  // namespace perfbench
