// Process-wide heap allocation counters, fed by the benchmark binary's
// replacement operator new (alloc_count.cc).
#pragma once

#include <atomic>
#include <cstdint>

namespace perfbench {

extern std::atomic<std::uint64_t> g_alloc_count;
extern std::atomic<std::uint64_t> g_alloc_bytes;

}  // namespace perfbench
