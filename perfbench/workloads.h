// The benchmark's workloads: which deployment each one builds, which calls
// its single closed-loop caller makes, and how each reply is checked.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/value.h"
#include "cqos/servant.h"
#include "sim/cluster.h"

namespace perfbench {

/// One call the caller is about to make. The caller moves `params` into the
/// call, so check() reads what was written from `key` and `value`: the KV
/// key and value index, or the bank amount.
struct Op {
  const char* method = "";
  cqos::ValueList params;
  bool is_read = false;
  int key = 0;
  std::int64_t value = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Deployment options; the servant factory is filled in by the caller.
  virtual cqos::sim::ClusterOptions options() const = 0;
  virtual std::shared_ptr<cqos::Servant> make_servant() const = 0;
  /// Forget the expected state: a fresh deployment starts empty.
  virtual void reset() = 0;
  virtual Op next(bool read, cqos::Rng& rng) = 0;
  /// Whether `result` is the right reply to `op`. Afterwards the expected
  /// state agrees with the reply, so one wrong reply counts once.
  virtual bool check(const Op& op, const cqos::Value& result) = 0;
  /// `op` threw: whether a write took effect is unknown, so the next reply
  /// that shows the state re-anchors it unchecked.
  virtual void forget(const Op& op) = 0;
  /// Whether the stacks run des_privacy + integrity.
  virtual bool secured() const { return false; }
};

/// The workload named `name`, or null. `seed` picks the values it writes.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Key material the secured workload configures on both sides (hex).
inline constexpr const char* kDesKeyHex = "0123456789abcdef";
inline constexpr const char* kHmacKeyHex = "00112233445566778899aabbccddeeff";

/// Wraps the workload's servant. In the traced run each dispatch becomes a
/// child span of the call in flight. `extra_ns` is a busy-wait added to
/// every dispatch: the slowdown the steadiness check injects to show that
/// its comparison flags a regression.
class TimedServant : public cqos::Servant {
 public:
  TimedServant(std::shared_ptr<cqos::Servant> inner, std::int64_t extra_ns)
      : inner_(std::move(inner)), extra_ns_(extra_ns) {}

  cqos::Value dispatch(const std::string& method,
                       const cqos::ValueList& params) override;

 private:
  std::shared_ptr<cqos::Servant> inner_;
  const std::int64_t extra_ns_;
};

}  // namespace perfbench
