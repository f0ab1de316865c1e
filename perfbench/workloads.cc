#include "workloads.h"

#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "sim/bank_account.h"
#include "trace.h"

namespace perfbench {

using cqos::Bytes;
using cqos::Rng;
using cqos::Value;
using cqos::ValueList;
namespace sim = cqos::sim;

Value TimedServant::dispatch(const std::string& method,
                             const ValueList& params) {
  TraceState& ts = trace_state();
  const bool traced = ts.on.load(std::memory_order_relaxed);
  Span span;
  if (traced) {
    span.id = ts.spans.next_id();
    span.parent = ts.call_span.load(std::memory_order_relaxed);
    span.call = ts.call.load(std::memory_order_relaxed);
    span.name = "servant";
    span.start_ns = mono_ns();
  }
  if (extra_ns_ > 0) {
    const std::int64_t until = mono_ns() + extra_ns_;
    while (mono_ns() < until) {
    }
  }
  Value result = inner_->dispatch(method, params);
  if (traced) {
    span.end_ns = mono_ns();
    ts.spans.add(span);
  }
  return result;
}

namespace {

// The paper's BankAccount over RMI at the full interception level with only
// the base micro-protocols, on TCP loopback: fixed per-call work (stub,
// Cactus raises, thread handoffs, framing, epoll) dominates.
class BankPlainTcp : public Workload {
 public:
  sim::ClusterOptions options() const override {
    sim::ClusterOptions o;
    o.platform = sim::PlatformKind::kRmi;
    o.level = sim::InterceptionLevel::kFull;
    o.transport_kind = cqos::net::TransportKind::kTcp;
    return o;
  }
  std::shared_ptr<cqos::Servant> make_servant() const override {
    return std::make_shared<sim::BankAccountServant>();
  }
  void reset() override {
    balance_ = 0;
    known_ = true;
  }
  Op next(bool read, Rng& rng) override {
    if (read) return Op{"get_balance", {}, true, 0};
    const auto cents = static_cast<std::int64_t>(rng.next_below(1'000'000'000));
    return Op{"set_balance", {Value(cents)}, false, 0, cents};
  }
  bool check(const Op& op, const Value& result) override {
    if (!op.is_read) {
      balance_ = op.value;
      known_ = true;
      return result == Value(true);
    }
    if (result.type() != Value::Type::kI64) return false;
    const bool ok = !known_ || result.as_i64() == balance_;
    balance_ = result.as_i64();
    known_ = true;
    return ok;
  }
  void forget(const Op& op) override {
    if (!op.is_read) known_ = false;
  }

 private:
  std::int64_t balance_ = 0;
  bool known_ = true;
};

// A benchmark-owned key-value servant: put(key, bytes) / get(key) -> bytes
// (empty for a key never written).
class KvServant : public cqos::Servant {
 public:
  Value dispatch(const std::string& method, const ValueList& params) override {
    std::lock_guard<std::mutex> lk(mu_);
    if (method == "put") {
      store_[params.at(0).as_i64()] = params.at(1).as_bytes();
      return Value();
    }
    if (method == "get") {
      auto it = store_.find(params.at(0).as_i64());
      return it == store_.end() ? Value(Bytes{}) : Value(it->second);
    }
    throw std::invalid_argument("kv: no such method: " + method);
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::int64_t, Bytes> store_;
};

// 4 KiB values over 64 keys on CORBA with des_privacy + integrity on both
// sides, over TCP loopback: DES-CBC, HMAC, CDR and the Value codec dominate.
// put carries the bytes on the request, get on the reply.
class KvSecuredCorba4k : public Workload {
 public:
  static constexpr int kKeys = 64;
  static constexpr int kValues = 256;
  static constexpr std::size_t kValueBytes = 4096;

  explicit KvSecuredCorba4k(std::uint64_t seed) {
    Rng rng(seed ^ 0x6b76'0000'0000'0000ULL);
    values_.resize(kValues);
    for (Bytes& v : values_) {
      v.resize(kValueBytes);
      for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
    }
  }
  sim::ClusterOptions options() const override {
    sim::ClusterOptions o;
    o.platform = sim::PlatformKind::kCorba;
    o.level = sim::InterceptionLevel::kFull;
    o.transport_kind = cqos::net::TransportKind::kTcp;
    o.object_id = "KvStore";
    for (auto side : {cqos::Side::kClient, cqos::Side::kServer}) {
      o.qos.add(side, "des_privacy", {{"key", kDesKeyHex}})
          .add(side, "integrity", {{"key", kHmacKeyHex}});
    }
    return o;
  }
  std::shared_ptr<cqos::Servant> make_servant() const override {
    return std::make_shared<KvServant>();
  }
  void reset() override { expected_.assign(kKeys, Expected{}); }
  Op next(bool read, Rng& rng) override {
    const int key = static_cast<int>(rng.next_below(kKeys));
    if (read) return Op{"get", {Value(std::int64_t{key})}, true, key};
    const int v = static_cast<int>(rng.next_below(kValues));
    return Op{"put", {Value(std::int64_t{key}), Value(values_[v])}, false, key,
              v};
  }
  bool check(const Op& op, const Value& result) override {
    Expected& e = expected_[static_cast<std::size_t>(op.key)];
    if (!op.is_read) {
      e = Expected{&values_[static_cast<std::size_t>(op.value)], {}, true};
      return result.is_null();
    }
    if (result.type() != Value::Type::kBytes) return false;
    const Bytes& want = e.written != nullptr ? *e.written : e.read;
    const bool ok = !e.known || result.as_bytes() == want;
    if (!ok || !e.known) e = Expected{nullptr, result.as_bytes(), true};
    return ok;
  }
  void forget(const Op& op) override {
    if (!op.is_read) expected_[static_cast<std::size_t>(op.key)].known = false;
  }
  bool secured() const override { return true; }

 private:
  /// A key's value: the bytes last put, or last read when re-anchored. A
  /// key never written reads as empty.
  struct Expected {
    const Bytes* written = nullptr;
    Bytes read;
    bool known = true;
  };
  std::vector<Bytes> values_;
  std::vector<Expected> expected_ = std::vector<Expected>(kKeys);
};

// Three RMI replicas, active_rep + majority_vote on the client and
// total_order on the servers, on a SimNetwork with zero latency and jitter:
// one call fans out to every replica, and only code cost remains.
class BankActive3Sim : public Workload {
 public:
  sim::ClusterOptions options() const override {
    sim::ClusterOptions o;
    o.platform = sim::PlatformKind::kRmi;
    o.level = sim::InterceptionLevel::kFull;
    o.num_replicas = 3;
    o.transport_kind = cqos::net::TransportKind::kSim;
    o.net.base_latency = cqos::Duration::zero();
    o.net.per_byte = cqos::Duration::zero();
    o.net.loopback_latency = cqos::Duration::zero();
    o.net.jitter = 0.0;
    o.qos.add(cqos::Side::kClient, "active_rep")
        .add(cqos::Side::kClient, "majority_vote")
        .add(cqos::Side::kServer, "total_order");
    return o;
  }
  std::shared_ptr<cqos::Servant> make_servant() const override {
    return std::make_shared<sim::BankAccountServant>();
  }
  void reset() override {
    balance_ = 0;
    known_ = true;
  }
  Op next(bool read, Rng& rng) override {
    if (read) return Op{"get_balance", {}, true, 0};
    const auto cents = static_cast<std::int64_t>(1 + rng.next_below(1000));
    return Op{"deposit", {Value(cents)}, false, 0, cents};
  }
  /// deposit returns the new balance, so writes are checked too.
  bool check(const Op& op, const Value& result) override {
    if (result.type() != Value::Type::kI64) return false;
    const std::int64_t want = balance_ + (op.is_read ? 0 : op.value);
    const bool ok = !known_ || result.as_i64() == want;
    balance_ = result.as_i64();
    known_ = true;
    return ok;
  }
  void forget(const Op& op) override {
    if (!op.is_read) known_ = false;
  }

 private:
  std::int64_t balance_ = 0;
  bool known_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "bank-plain-tcp") return std::make_unique<BankPlainTcp>();
  if (name == "kv-secured-corba-4k") {
    return std::make_unique<KvSecuredCorba4k>(seed);
  }
  if (name == "bank-active3-sim") return std::make_unique<BankActive3Sim>();
  return nullptr;
}

}  // namespace perfbench
