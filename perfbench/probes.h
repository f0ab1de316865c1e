// Single-thread layer probes: each times calls into one layer's public
// functions on the payloads a workload sends, from outside the layer.
#pragma once

#include <string>
#include <vector>

#include "common/value.h"
#include "net/transport.h"
#include "sim/cluster.h"
#include "trace.h"

namespace perfbench {

/// One application-level call as the workload made it.
struct CallSample {
  std::string method;
  cqos::ValueList params;
  cqos::Value result;
};

struct ProbeInput {
  cqos::sim::PlatformKind platform = cqos::sim::PlatformKind::kRmi;
  cqos::net::TransportKind transport = cqos::net::TransportKind::kTcp;
  bool secured = false;
  std::vector<CallSample> calls;  // one write and one read
  std::size_t wire_bytes = 0;     // mean transport payload per message
};

/// One reported metric: a probe's result, or any other figure of a run.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// Runs every probe; each records one span per timed batch in `spans`.
std::vector<Metric> run_probes(const ProbeInput& in, SpanStore& spans);

}  // namespace perfbench
