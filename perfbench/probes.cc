#include "probes.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "cactus/composite.h"
#include "crypto/des.h"
#include "crypto/sha256.h"
#include "micro/security.h"
#include "net/framing.h"
#include "platform/corba/giop.h"
#include "platform/rmi/jrmp.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cqos::Bytes;
using cqos::ByteReader;
using cqos::ByteWriter;
using cqos::PiggybackMap;
using cqos::Value;
using cqos::ValueList;
namespace pbkey = cqos::pbkey;

constexpr int kBatches = 21;
constexpr std::int64_t kBatchNs = 10'000'000;

/// Keeps `v` observable so the timed work is not optimised away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Microseconds per fn() call: batches sized to about 10 ms (the sizing
/// rounds double as warm-up), median of kBatches batches, one span each.
template <typename F>
double per_call_us(const char* span_name, SpanStore& spans, F&& fn) {
  std::int64_t iters = 1;
  for (;;) {
    const std::int64_t t0 = mono_ns();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    const std::int64_t elapsed = mono_ns() - t0;
    if (elapsed >= kBatchNs / 2) {
      iters = std::max<std::int64_t>(1, iters * kBatchNs / elapsed);
      break;
    }
    iters *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    Span s{spans.next_id(), 0, 0, span_name, mono_ns(), 0};
    for (std::int64_t i = 0; i < iters; ++i) fn();
    s.end_ns = mono_ns();
    spans.add(s);
    per_call.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3 /
                       static_cast<double>(iters));
  }
  return median(std::move(per_call));
}

Bytes encode_value(const Value& v) {
  ByteWriter w;
  v.encode(w);
  return std::move(w).take();
}

/// A call's params and result as the platform marshals them: with
/// des_privacy the params travel as one ciphertext blob and the result as
/// another, and the piggyback carries the flags the stacks add.
struct WireCall {
  std::string method;
  ValueList params;
  Value result;
  PiggybackMap request_pb;
  PiggybackMap reply_pb;
};

std::vector<WireCall> wire_calls(const ProbeInput& in) {
  const Bytes des_key = cqos::micro::parse_hex_key(kDesKeyHex, "des key");
  const Bytes iv(8, 0);
  std::vector<WireCall> out;
  for (const CallSample& c : in.calls) {
    WireCall w{c.method, c.params, c.result, {}, {}};
    w.request_pb[pbkey::kRequestId] = Value(std::int64_t{12345});
    w.request_pb[pbkey::kPriority] = Value(std::int64_t{5});
    w.request_pb[pbkey::kTraceId] = Value(std::int64_t{67890});
    w.reply_pb[pbkey::kTraceId] = Value(std::int64_t{67890});
    if (in.secured) {
      w.params = {Value(cqos::crypto::des_cbc_encrypt(
          des_key, iv, Value::encode_list(c.params)))};
      w.result = Value(
          cqos::crypto::des_cbc_encrypt(des_key, iv, encode_value(c.result)));
      const Bytes mac(32, 0xab);
      w.request_pb[pbkey::kEncrypted] = Value(true);
      w.request_pb[pbkey::kHmac] = Value(mac);
      w.reply_pb[pbkey::kHmac] = Value(mac);
    }
    out.push_back(std::move(w));
  }
  return out;
}

double value_codec_us(const ProbeInput& in, SpanStore& spans) {
  std::vector<ValueList> results;
  for (const CallSample& c : in.calls) results.push_back({c.result});
  const double per_round = per_call_us("probe.common.value_codec", spans, [&] {
    for (std::size_t i = 0; i < in.calls.size(); ++i) {
      ValueList p = Value::decode_list(Value::encode_list(in.calls[i].params));
      ValueList r = Value::decode_list(Value::encode_list(results[i]));
      keep(p);
      keep(r);
    }
  });
  return per_round / static_cast<double>(in.calls.size());
}

double marshal_us(const ProbeInput& in, SpanStore& spans) {
  const std::vector<WireCall> calls = wire_calls(in);
  double per_round = 0;
  if (in.platform == cqos::sim::PlatformKind::kCorba) {
    namespace corba = cqos::corba;
    per_round = per_call_us("probe.platform.marshal", spans, [&] {
      for (const WireCall& c : calls) {
        corba::RequestBody req{"client0/orb", "RootPOA/KvStore", c.method,
                               c.request_pb, c.params};
        Bytes req_bytes = corba::encode_request(1, req);
        ByteReader rr(req_bytes);
        corba::read_frame(rr);
        corba::RequestBody req_back = corba::decode_request_body(rr);
        corba::ReplyBody rep{corba::GiopReplyStatus::kNoException,
                             c.reply_pb, c.result, {}};
        Bytes rep_bytes = corba::encode_reply(1, rep);
        ByteReader pr(rep_bytes);
        corba::read_frame(pr);
        corba::ReplyBody rep_back = corba::decode_reply_body(pr);
        keep(req_back);
        keep(rep_back);
      }
    });
  } else {
    namespace rmi = cqos::rmi;
    per_round = per_call_us("probe.platform.marshal", spans, [&] {
      for (const WireCall& c : calls) {
        rmi::CallBody call{"client0/rmi", "BankAccount", c.method,
                           c.request_pb, c.params};
        Bytes call_bytes = rmi::encode_call(1, call);
        ByteReader cr(call_bytes);
        rmi::read_header(cr);
        rmi::CallBody call_back = rmi::decode_call_body(cr);
        rmi::ReturnBody ret{true, c.result, {}, c.reply_pb};
        Bytes ret_bytes = rmi::encode_return(1, ret);
        ByteReader rr(ret_bytes);
        rmi::read_header(rr);
        rmi::ReturnBody ret_back = rmi::decode_return_body(rr);
        keep(call_back);
        keep(ret_back);
      }
    });
  }
  return per_round / static_cast<double>(calls.size());
}

/// The bytes des_privacy and integrity process for the workload's calls:
/// the encoded params of each request and the encoded result of each reply.
std::vector<Bytes> crypto_payloads(const ProbeInput& in, double* kib) {
  std::vector<Bytes> out;
  std::size_t total = 0;
  for (const CallSample& c : in.calls) {
    out.push_back(Value::encode_list(c.params));
    out.push_back(encode_value(c.result));
  }
  for (const Bytes& b : out) total += b.size();
  *kib = static_cast<double>(total) / 1024.0;
  return out;
}

double des_cbc_us_per_kib(const ProbeInput& in, SpanStore& spans) {
  const Bytes key = cqos::micro::parse_hex_key(kDesKeyHex, "des key");
  const Bytes iv(8, 0);
  double kib = 0;
  const std::vector<Bytes> payloads = crypto_payloads(in, &kib);
  const double per_round = per_call_us("probe.crypto.des_cbc", spans, [&] {
    for (const Bytes& p : payloads) {
      Bytes plain = cqos::crypto::des_cbc_decrypt(
          key, iv, cqos::crypto::des_cbc_encrypt(key, iv, p));
      keep(plain);
    }
  });
  return per_round / kib;
}

double hmac_us_per_kib(const ProbeInput& in, SpanStore& spans) {
  const Bytes key = cqos::micro::parse_hex_key(kHmacKeyHex, "hmac key");
  double kib = 0;
  const std::vector<Bytes> payloads = crypto_payloads(in, &kib);
  const double per_round = per_call_us("probe.crypto.hmac", spans, [&] {
    for (const Bytes& p : payloads) {
      cqos::crypto::Sha256Digest mac = cqos::crypto::hmac_sha256(key, p);
      keep(mac);
    }
  });
  return per_round / kib;
}

double framing_us(const ProbeInput& in, SpanStore& spans) {
  const Bytes payload(in.wire_bytes, 0x5a);
  cqos::net::FrameDecoder decoder(cqos::net::TcpOptions{}.max_frame_bytes);
  return per_call_us("probe.net.framing", spans, [&] {
    Bytes frame = cqos::net::encode_frame("client0/rmi", "server0/rmi", payload);
    if (!decoder.feed(frame)) throw std::runtime_error("framing: bad frame");
    std::optional<cqos::net::Frame> f = decoder.next();
    if (!f) throw std::runtime_error("framing: frame not decoded");
    keep(*f);
  });
}

/// Ping-pong through the workload's transport kind between two endpoints
/// of one transport: over TCP every message crosses a loopback socket, on
/// the simulator it is the zero-latency delivery path.
double raw_rtt_us(const ProbeInput& in, SpanStore& spans) {
  namespace net = cqos::net;
  net::SimOptions sim;
  sim.base_latency = cqos::Duration::zero();
  sim.per_byte = cqos::Duration::zero();
  sim.loopback_latency = cqos::Duration::zero();
  sim.jitter = 0.0;
  auto transport = net::make_transport(in.transport == net::TransportKind::kTcp
                                           ? net::TransportConfig::real_tcp()
                                           : net::TransportConfig::simulated(sim));
  auto echo = transport->create_endpoint("probe/echo");
  auto cli = transport->create_endpoint("probe/cli");
  std::thread echoer([&] {
    for (;;) {
      auto msg = echo->recv(cqos::ms(100));
      if (msg) {
        transport->send(echo->id(), msg->from, std::move(msg->payload));
      } else if (echo->closed()) {
        return;
      }
    }
  });
  struct StopEcho {
    cqos::net::Endpoint& ep;
    std::thread& t;
    ~StopEcho() {
      ep.close();
      t.join();
    }
  } stop{*echo, echoer};
  return per_call_us("probe.net.raw_rtt", spans, [&] {
    if (!transport->send(cli->id(), echo->id(), Bytes(in.wire_bytes, 0x42)) ||
        !cli->recv(cqos::ms(2000))) {
      throw std::runtime_error("raw ping-pong lost a message");
    }
  });
}

double raise_sync_us(SpanStore& spans) {
  cqos::cactus::CompositeProtocol proto;
  proto.bind("probe", "noop", [](cqos::cactus::EventContext&) {});
  const double us =
      per_call_us("probe.cactus.raise_sync", spans, [&] { proto.raise("probe"); });
  proto.stop();
  return us;
}

/// One asynchronous raise and the wait for its handler: one pool handoff
/// and the wake-up back to the raiser.
double raise_async_us(SpanStore& spans) {
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t done = 0;
  std::uint64_t raised = 0;
  cqos::cactus::CompositeProtocol proto;
  proto.bind("probe", "signal", [&](cqos::cactus::EventContext&) {
    std::lock_guard<std::mutex> lk(mu);
    ++done;
    cv.notify_one();
  });
  const double us = per_call_us("probe.cactus.raise_async", spans, [&] {
    ++raised;
    proto.raise_async("probe");
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return done == raised; });
  });
  proto.stop();
  return us;
}

}  // namespace

std::vector<Metric> run_probes(const ProbeInput& in, SpanStore& spans) {
  return {
      {"common.value_codec_us", "us", value_codec_us(in, spans)},
      {"platform.marshal_us", "us", marshal_us(in, spans)},
      {"crypto.des_cbc_us_per_kib", "us/KiB", des_cbc_us_per_kib(in, spans)},
      {"crypto.hmac_us_per_kib", "us/KiB", hmac_us_per_kib(in, spans)},
      {"net.framing_us", "us", framing_us(in, spans)},
      {"net.raw_rtt_us", "us", raw_rtt_us(in, spans)},
      {"cactus.raise_sync_us", "us", raise_sync_us(spans)},
      {"cactus.raise_async_us", "us", raise_async_us(spans)},
  };
}

}  // namespace perfbench
