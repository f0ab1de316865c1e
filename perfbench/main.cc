// cqos_perfbench: one run of one workload of the CQoS benchmark.
//
//   cqos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--inject-servant-us X] [--trace-out FILE]
//
// The process pins itself to one CPU of its allowed set before any thread
// exists, so the client, the servers, the transport loops and every pool
// inherit the mask. On one CPU a call's thread handoffs cost a context
// switch rather than a cross-core wake-up, which is what makes runs repeat
// (see README.md). One closed-loop caller alternates a write and a read and
// checks every reply against the last write.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: it alternates untraced and traced segments (their throughput
// ratio is the tracing overhead), records spans around each call and each
// servant dispatch, and then runs the single-thread layer probes. The last
// line of standard output is the result as one JSON object.
#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"
#include "common/metrics.h"
#include "probes.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqos::Value;
namespace sim = cqos::sim;

constexpr int kBuildsPerSlice = 4;
constexpr std::int64_t kWarmupNs = 1'000'000'000;
constexpr std::int64_t kRewarmNs = 100'000'000;
constexpr int kTracedSegments = 10;  // each an untraced + a traced slice

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  double inject_servant_us = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cqos_perfbench: %s\nusage: cqos_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--inject-servant-us X] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0') usage("bad --seconds");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      a.trace = v[0] == '1';
    } else if (flag == "--inject-servant-us") {
      a.inject_servant_us = std::strtod(v, &end);
      if (end == v || *end != '\0' || a.inject_servant_us < 0) {
        usage("bad --inject-servant-us");
      }
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed needs a whole number");
  if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds must be in (0, 120]");
  return a;
}

int thread_count() {
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return -1;
  int n = 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n;
}

/// Pin the process to the highest-numbered CPU it may use. Must run while
/// the process has one thread: every thread created later inherits it.
int pin_to_one_cpu() {
  if (thread_count() != 1) {
    std::fprintf(stderr, "cqos_perfbench: threads exist before pinning\n");
    std::exit(1);
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    std::perror("sched_getaffinity");
    std::exit(1);
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (cpu < 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::perror("sched_setaffinity");
    std::exit(1);
  }
  return cpu;
}

/// Process-wide costs read at segment boundaries; a segment's use is the
/// difference of two readings.
struct Counters {
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t vcsw = 0;
  std::int64_t ivcsw = 0;
  std::int64_t msgs = 0;
  std::int64_t bytes = 0;
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;

  static Counters read() {
    Counters c;
    c.wall_ns = mono_ns();
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    c.cpu_ns = std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    c.vcsw = ru.ru_nvcsw;
    c.ivcsw = ru.ru_nivcsw;
    auto& reg = cqos::metrics::Registry::global();
    c.msgs = static_cast<std::int64_t>(reg.counter("net.sent.msgs").value());
    c.bytes = static_cast<std::int64_t>(reg.counter("net.sent.bytes").value());
    c.allocs = static_cast<std::int64_t>(g_alloc_count.load());
    c.alloc_bytes = static_cast<std::int64_t>(g_alloc_bytes.load());
    return c;
  }
  void add_delta(const Counters& from, const Counters& to) {
    wall_ns += to.wall_ns - from.wall_ns;
    cpu_ns += to.cpu_ns - from.cpu_ns;
    vcsw += to.vcsw - from.vcsw;
    ivcsw += to.ivcsw - from.ivcsw;
    msgs += to.msgs - from.msgs;
    bytes += to.bytes - from.bytes;
    allocs += to.allocs - from.allocs;
    alloc_bytes += to.alloc_bytes - from.alloc_bytes;
  }
};

/// Latency samples in nanoseconds. The buffer is sized and touched up front
/// so peak RSS does not depend on how many calls a run completes.
class Samples {
 public:
  explicit Samples(std::size_t capacity) : ns_(capacity) {}
  void add(std::int64_t ns) {
    const auto v = static_cast<std::uint32_t>(std::min<std::int64_t>(
        ns, std::numeric_limits<std::uint32_t>::max()));
    if (n_ < ns_.size()) {
      ns_[n_] = v;
    } else {
      ns_.push_back(v);
    }
    ++n_;
  }
  std::size_t size() const { return n_; }
  /// Percentiles in microseconds of samples [from, to), linear between
  /// order statistics.
  std::vector<double> percentiles_us(const std::vector<double>& ps,
                                     std::size_t from, std::size_t to) const {
    std::vector<std::uint32_t> s(ns_.begin() + static_cast<long>(from),
                                 ns_.begin() + static_cast<long>(to));
    std::sort(s.begin(), s.end());
    std::vector<double> out;
    for (double p : ps) {
      if (s.empty()) {
        out.push_back(0);
        continue;
      }
      const double pos = p / 100.0 * static_cast<double>(s.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, s.size() - 1);
      const double frac = pos - static_cast<double>(lo);
      out.push_back((s[lo] + frac * (static_cast<double>(s[hi]) - s[lo])) / 1e3);
    }
    return out;
  }

 private:
  std::vector<std::uint32_t> ns_;
  std::size_t n_ = 0;
};

struct Tally {
  explicit Tally(std::size_t capacity) : read_ns(capacity), write_ns(capacity) {}
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  std::string first_error;
  Samples read_ns;
  Samples write_ns;
  Counters used;

  /// Where a slice starts.
  struct Mark {
    std::int64_t attempted;
    std::int64_t failed;
    Counters used;
    std::size_t reads;
    std::size_t writes;
  };
  Mark mark() const {
    return {attempted, failed, used, read_ns.size(), write_ns.size()};
  }
  /// Counts `o`'s calls and failures, but not its latencies or costs.
  void add_outcome(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// The client must be destroyed before the cluster it runs on.
struct Deployment {
  std::unique_ptr<sim::Cluster> cluster;
  std::unique_ptr<sim::ClientHandle> client;
};

/// Builds a deployment of `w`, every servant wrapped in a TimedServant, and
/// completes its first call (a read); `secs` receives the set-up time.
Deployment build(Workload& w, cqos::Rng& rng, std::int64_t extra_ns, double& secs) {
  const std::int64_t t0 = mono_ns();
  sim::ClusterOptions opts = w.options();
  opts.servant_factory = [&w, extra_ns] {
    return std::make_shared<TimedServant>(w.make_servant(), extra_ns);
  };
  Deployment d;
  d.cluster = std::make_unique<sim::Cluster>(std::move(opts));
  d.client = d.cluster->make_client();
  w.reset();
  Op op = w.next(true, rng);
  const Value r = d.client->stub().call(op.method, std::move(op.params));
  const std::int64_t t1 = mono_ns();
  if (!w.check(op, r)) throw std::runtime_error("first call: wrong reply");
  secs = static_cast<double>(t1 - t0) / 1e9;
  return d;
}

class Caller {
 public:
  Caller(Workload& w, std::uint64_t seed, std::int64_t servant_extra_ns)
      : w_(w), rng_(seed), extra_ns_(servant_extra_ns) {}

  /// Build the deployment the calls run on; returns its set-up time in s.
  double deploy() {
    teardown();
    double secs = 0;
    d_ = build(w_, rng_, extra_ns_, secs);
    return secs;
  }

  /// Set-up time of one more deployment, of `spare`'s own state, built and
  /// torn down while the one the calls run on stays up.
  double time_setup(Workload& spare) {
    double secs = 0;
    Deployment d = build(spare, rng_, extra_ns_, secs);
    d.client.reset();
    return secs;
  }

  void teardown() {
    d_.client.reset();
    d_.cluster.reset();
  }

  /// One write or read whose params and reply are kept for the probes.
  CallSample capture(bool read) {
    Op op = w_.next(read, rng_);
    CallSample s{op.method, op.params, {}};
    s.result = d_.client->stub().call(op.method, std::move(op.params));
    if (!w_.check(op, s.result)) throw std::runtime_error("capture: wrong reply");
    return s;
  }

  /// Closed loop for `ns`: write, read, write, ... With `traced`, every call
  /// is a span and the servant dispatches it causes are its children.
  void run_for(std::int64_t ns, bool traced, Tally& t) {
    TraceState& ts = trace_state();
    cqos::CqosStub& stub = d_.client->stub();
    const Counters c0 = Counters::read();
    ts.on.store(traced);
    const std::int64_t end = c0.wall_ns + ns;
    for (;;) {
      const bool read = (n_++ % 2) == 1;
      Op op = w_.next(read, rng_);
      Span span;
      if (traced) {
        span = Span{ts.spans.next_id(), 0, ++call_id_,
                    read ? "call.read" : "call.write", 0, 0};
        ts.call.store(span.call, std::memory_order_relaxed);
        ts.call_span.store(span.id, std::memory_order_relaxed);
      }
      const std::int64_t t0 = mono_ns();
      bool ok = false;
      try {
        const Value r = stub.call(op.method, std::move(op.params));
        ok = w_.check(op, r);
        if (!ok) {
          ++t.mismatched;
          if (t.first_error.empty()) {
            t.first_error = std::string(op.method) + ": wrong reply, call " +
                            std::to_string(t.attempted);
          }
        }
      } catch (const std::exception& e) {
        w_.forget(op);
        if (t.first_error.empty()) {
          t.first_error = std::string(op.method) + ": " + e.what() + ", call " +
                          std::to_string(t.attempted);
        }
      }
      const std::int64_t t1 = mono_ns();
      if (traced) {
        span.start_ns = t0;
        span.end_ns = t1;
        ts.spans.add(span);
      }
      ++t.attempted;
      // A failed call, often a fast one, must not improve the latencies.
      if (ok) {
        (read ? t.read_ns : t.write_ns).add(t1 - t0);
      } else {
        ++t.failed;
      }
      if (t1 >= end) break;
    }
    ts.on.store(false);
    t.used.add_delta(c0, Counters::read());
  }

 private:
  Workload& w_;
  cqos::Rng rng_;
  const std::int64_t extra_ns_;
  Deployment d_;
  std::uint64_t n_ = 0;
  std::uint64_t call_id_ = 0;
};

void print_result(const Tally& t, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              t.mismatched == 0 && t.failed == 0 ? "true" : "false",
              static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_outcome(const char* label, const Tally& t) {
  std::printf("# %s: %lld calls, %lld failed (share %.6f), %lld wrong replies%s%s\n",
              label, static_cast<long long>(t.attempted),
              static_cast<long long>(t.failed),
              t.attempted > 0 ? static_cast<double>(t.failed) / t.attempted : 0.0,
              static_cast<long long>(t.mismatched),
              t.first_error.empty() ? "" : "; first: ", t.first_error.c_str());
}

/// VmHWM of this process image. getrusage's ru_maxrss is not used: it
/// keeps the peak of the process that exec'd this one (the Python runner).
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib <= 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

int run_end_to_end(const Args& a, Workload& spare, Caller& caller) {
  std::vector<double> builds = {caller.deploy()};
  const int threads = thread_count();
  // Room for 25k calls/s of each op, well above any workload's rate.
  Tally t(static_cast<std::size_t>(a.seconds * 25'000) + 1);
  Tally warm(0);
  caller.run_for(kWarmupNs, false, warm);
  t.add_outcome(warm);
  // The host's speed drifts on a scale of seconds, so each figure is the
  // median over one-second slices of the run. Set-up is spread the same
  // way: a few more deployments are built before each slice, and the calls
  // are warmed up again after them.
  std::vector<double> cps, cpu, r50, r90, w50, w90;
  const int slices = std::max(1, static_cast<int>(a.seconds));
  for (int i = 0; i < slices; ++i) {
    for (int b = 0; b < kBuildsPerSlice; ++b) builds.push_back(caller.time_setup(spare));
    Tally rewarm(0);
    caller.run_for(kRewarmNs, false, rewarm);
    t.add_outcome(rewarm);
    const Tally::Mark m = t.mark();
    caller.run_for(static_cast<std::int64_t>(a.seconds * 1e9 / slices), false, t);
    const auto calls = static_cast<double>(t.attempted - m.attempted);
    const double completed = calls - static_cast<double>(t.failed - m.failed);
    cps.push_back(completed * 1e9 / static_cast<double>(t.used.wall_ns - m.used.wall_ns));
    cpu.push_back(static_cast<double>(t.used.cpu_ns - m.used.cpu_ns) / 1e3 /
                  std::max(completed, 1.0));
    const std::vector<double> r = t.read_ns.percentiles_us({50, 90}, m.reads, t.read_ns.size());
    const std::vector<double> w = t.write_ns.percentiles_us({50, 90}, m.writes, t.write_ns.size());
    r50.push_back(r[0]);
    r90.push_back(r[1]);
    w50.push_back(w[0]);
    w90.push_back(w[1]);
  }
  caller.teardown();

  std::printf("# setup: median of %zu builds; min %.6f s, max %.6f s\n",
              builds.size(), *std::min_element(builds.begin(), builds.end()),
              *std::max_element(builds.begin(), builds.end()));
  std::printf("# threads after setup: %d\n", threads);
  print_outcome("all calls, warm-ups included", t);
  std::printf("# calls/s per slice:");
  for (double c : cps) std::printf(" %.0f", c);
  std::printf("\n");
  const std::vector<double> r = t.read_ns.percentiles_us({50, 90, 99}, 0, t.read_ns.size());
  const std::vector<double> w = t.write_ns.percentiles_us({50, 90, 99}, 0, t.write_ns.size());
  std::printf("# whole run, read:  n=%zu p50 %.3f us, p90 %.3f us, p99 %.3f us (%zu beyond p99)\n",
              t.read_ns.size(), r[0], r[1], r[2], t.read_ns.size() / 100);
  std::printf("# whole run, write: n=%zu p50 %.3f us, p90 %.3f us, p99 %.3f us (%zu beyond p99)\n",
              t.write_ns.size(), w[0], w[1], w[2], t.write_ns.size() / 100);
  print_result(t, {
      {"calls_per_s", "1/s", median(cps)},
      {"read_p50_us", "us", median(r50)},
      {"read_p90_us", "us", median(r90)},
      {"write_p50_us", "us", median(w50)},
      {"write_p90_us", "us", median(w90)},
      {"cpu_us_per_call", "us", median(cpu)},
      {"setup_s", "s", median(builds)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  });
  return 0;
}

/// Per-call self time of the middleware: each call span's duration minus
/// the part of it covered by its servant child spans.
struct SelfTimes {
  std::vector<double> read_us;
  std::vector<double> write_us;
  std::vector<double> servant_us;
};

SelfTimes self_times(const std::vector<Span>& spans) {
  SelfTimes out;
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "servant") == 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
      out.servant_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  for (const Span& s : spans) {
    const bool read = std::strcmp(s.name, "call.read") == 0;
    if (!read && std::strcmp(s.name, "call.write") != 0) continue;
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t reach = s.start_ns;
      for (auto [b, e] : iv) {
        b = std::max(b, reach);
        e = std::min(e, s.end_ns);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
    }
    (read ? out.read_us : out.write_us)
        .push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
  }
  return out;
}

int run_traced(const Args& a, Workload& w, Caller& caller) {
  caller.deploy();
  const int threads = thread_count();
  Tally warm(0);
  caller.run_for(kWarmupNs, false, warm);
  ProbeInput in;
  const sim::ClusterOptions opts = w.options();
  in.platform = opts.platform;
  in.transport = opts.transport_kind;
  in.secured = w.secured();
  in.calls = {caller.capture(false), caller.capture(true)};

  const std::size_t cap = static_cast<std::size_t>(a.seconds * 25'000) + 1;
  Tally plain(cap);
  Tally traced(cap);
  const auto slice = static_cast<std::int64_t>(a.seconds * 1e9 / (2 * kTracedSegments));
  for (int i = 0; i < kTracedSegments; ++i) {
    caller.run_for(slice, false, plain);
    caller.run_for(slice, true, traced);
  }
  caller.teardown();

  // Counts per call come from the untraced slices: tracing adds its own
  // allocations and lock traffic.
  const double calls =
      std::max(static_cast<double>(plain.attempted - plain.failed), 1.0);
  const Counters& u = plain.used;
  in.wire_bytes = u.msgs > 0 ? static_cast<std::size_t>(u.bytes / u.msgs) : 64;
  SpanStore& spans = trace_state().spans;
  const std::vector<Metric> probes = run_probes(in, spans);
  if (!a.trace_out.empty() && !spans.write(a.trace_out)) {
    std::fprintf(stderr, "cqos_perfbench: cannot write %s\n", a.trace_out.c_str());
    return 1;
  }

  const SelfTimes st = self_times(spans.snapshot());
  const double cps_plain = static_cast<double>(plain.attempted - plain.failed) /
                           (static_cast<double>(u.wall_ns) / 1e9);
  const double cps_traced = static_cast<double>(traced.attempted - traced.failed) /
                            (static_cast<double>(traced.used.wall_ns) / 1e9);
  Tally all(0);
  all.add_outcome(warm);
  all.add_outcome(plain);
  all.add_outcome(traced);
  print_outcome("untraced slices", plain);
  print_outcome("traced slices", traced);
  std::printf("# spans: %zu read calls, %zu write calls, %zu servant dispatches\n",
              st.read_us.size(), st.write_us.size(), st.servant_us.size());
  std::printf("# calls/s untraced %.1f, traced %.1f; mean wire message %zu bytes\n",
              cps_plain, cps_traced, in.wire_bytes);

  std::vector<Metric> m = {
      {"sim.servant_us", "us", median(st.servant_us)},
      {"cqos.call_self_us.read", "us", median(st.read_us)},
      {"cqos.call_self_us.write", "us", median(st.write_us)},
      {"os.vcsw_per_call", "1/call", static_cast<double>(u.vcsw) / calls},
      {"os.ivcsw_per_call", "1/call", static_cast<double>(u.ivcsw) / calls},
      {"os.threads", "count", static_cast<double>(threads)},
      {"net.msgs_per_call", "1/call", static_cast<double>(u.msgs) / calls},
      {"net.bytes_per_call", "B/call", static_cast<double>(u.bytes) / calls},
      {"alloc.count_per_call", "1/call", static_cast<double>(u.allocs) / calls},
      {"alloc.bytes_per_call", "B/call", static_cast<double>(u.alloc_bytes) / calls},
  };
  m.insert(m.end(), probes.begin(), probes.end());
  m.push_back({"trace.overhead_pct", "%", (cps_plain / cps_traced - 1.0) * 100.0});
  print_result(all, m);
  return 0;
}

int run(int argc, char** argv) {
  const int cpu = pin_to_one_cpu();
  const Args a = parse_args(argc, argv);
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed);
  if (!w) usage(("unknown workload " + a.workload).c_str());
  std::printf("# workload %s, seed %llu, %g s, trace %d, pinned to cpu %d\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, cpu);
  Caller caller(*w, a.seed, static_cast<std::int64_t>(a.inject_servant_us * 1e3));
  if (a.trace) return run_traced(a, *w, caller);
  const std::unique_ptr<Workload> spare = make_workload(a.workload, a.seed);
  return run_end_to_end(a, *spare, caller);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cqos_perfbench: %s\n", e.what());
    return 1;
  }
}
