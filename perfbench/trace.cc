#include "trace.h"

#include <cstdio>

namespace perfbench {

TraceState& trace_state() {
  static TraceState state;
  return state;
}

bool SpanStore::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  std::fprintf(f, "# id parent call name start_ns end_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%llu %llu %llu %s %lld %lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.call), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
