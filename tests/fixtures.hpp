// Shared keygen/sign fixture boilerplate for the threshold test suites.
// Every suite that exercises the RO-model or DLIN scheme repeats the same
// setup — derive params from a label, run Dist-Keygen, sign partials with a
// subset of players, tamper a component to make a forgery. Those helpers
// live here once; suites subclass with their own domain label so key
// material never collides across suites. The daemon suites (test_rpc,
// test_faults, test_cluster) also share one live-daemon harness and one
// raw-socket helper from here.
#pragma once

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "rpc/rpc_server.hpp"
#include "rpc/wire.hpp"
#include "service/thread_pool.hpp"
#include "threshold/dlin_scheme.hpp"
#include "threshold/ro_scheme.hpp"

namespace bnr::testfx {

/// Seed of the randomized differential sweeps: fresh per run, so a sweep
/// explores new inputs on every execution; a failure logs it, and
/// BNR_SWEEP_SEED=<seed> reproduces the exact trial sequence.
inline uint64_t sweep_seed() {
  static const uint64_t seed = [] {
    if (const char* env = std::getenv("BNR_SWEEP_SEED"))
      return uint64_t(std::strtoull(env, nullptr, 0));
    std::random_device rd;
    return uint64_t(rd()) << 32 ^ uint64_t(rd());
  }();
  return seed;
}

/// Base fixture over the paper's main (RO-model) scheme.
class RoSchemeFixture : public ::testing::Test {
 protected:
  explicit RoSchemeFixture(std::string_view label)
      : sp(threshold::SystemParams::derive(label)),
        scheme(sp),
        rng(std::string(label) + "-rng") {}

  threshold::KeyMaterial keygen(size_t n = 5, size_t t = 2) {
    return scheme.dist_keygen(n, t, rng);
  }

  std::vector<threshold::PartialSignature> partials(
      const threshold::KeyMaterial& km, std::span<const uint8_t> msg,
      std::span<const uint32_t> signers) {
    std::vector<threshold::PartialSignature> out;
    for (uint32_t i : signers)
      out.push_back(scheme.share_sign(km.shares[i - 1], msg));
    return out;
  }
  std::vector<threshold::PartialSignature> partials(
      const threshold::KeyMaterial& km, std::span<const uint8_t> msg,
      std::initializer_list<uint32_t> signers) {
    return partials(km, msg, std::span<const uint32_t>(signers.begin(),
                                                       signers.size()));
  }
  /// Partials from players 1..t+1.
  std::vector<threshold::PartialSignature> first_partials(
      const threshold::KeyMaterial& km, std::span<const uint8_t> msg) {
    std::vector<uint32_t> signers;
    for (uint32_t i = 1; i <= km.t + 1; ++i) signers.push_back(i);
    return partials(km, msg, signers);
  }

  /// Full signature from players 1..t+1 (no share verification — the inputs
  /// are honest by construction).
  threshold::Signature sign(const threshold::KeyMaterial& km,
                            std::span<const uint8_t> msg) {
    return scheme.combine_unchecked(km.t, first_partials(km, msg));
  }

  /// (message, signature) pair for `label`; `valid = false` perturbs z into
  /// a forgery.
  std::pair<Bytes, threshold::Signature> make_signed(
      const threshold::KeyMaterial& km, const std::string& label,
      bool valid = true) {
    Bytes m = to_bytes(label);
    threshold::Signature sig = sign(km, m);
    if (!valid) sig = forge(sig);
    return {m, sig};
  }

  static threshold::PartialSignature tamper(threshold::PartialSignature p) {
    p.z = (G1::from_affine(p.z) + G1::generator()).to_affine();
    return p;
  }
  static threshold::Signature forge(threshold::Signature s) {
    s.z = (G1::from_affine(s.z) + G1::generator()).to_affine();
    return s;
  }

  threshold::SystemParams sp;
  threshold::RoScheme scheme;
  Rng rng;
};

/// Base fixture over the DLIN variant (App. F).
class DlinSchemeFixture : public ::testing::Test {
 protected:
  explicit DlinSchemeFixture(std::string_view label)
      : sp(threshold::SystemParams::derive(label)),
        scheme(sp),
        rng(std::string(label) + "-rng") {}

  threshold::DlinKeyMaterial keygen(size_t n = 5, size_t t = 2) {
    return scheme.dist_keygen(n, t, rng);
  }

  std::vector<threshold::DlinPartialSignature> partials(
      const threshold::DlinKeyMaterial& km, std::span<const uint8_t> msg,
      std::initializer_list<uint32_t> signers) {
    std::vector<threshold::DlinPartialSignature> out;
    for (uint32_t i : signers)
      out.push_back(scheme.share_sign(km.shares[i - 1], msg));
    return out;
  }

  static threshold::DlinPartialSignature tamper(
      threshold::DlinPartialSignature p) {
    p.z = (G1::from_affine(p.z) + G1::generator()).to_affine();
    return p;
  }

  threshold::SystemParams sp;
  threshold::DlinScheme scheme;
  Rng rng;
};

/// A loopback daemon config for the suites: an ephemeral port, a 64 MiB
/// cache and a 1 ms batching delay (tests wait on round trips, not on flush
/// timers). `label` must match the suite's fixture label, so the daemon
/// derives the same params as the keys it serves.
inline rpc::ServerConfig daemon_config(std::string label) {
  rpc::ServerConfig cfg;
  cfg.port = 0;
  cfg.params_label = std::move(label);
  cfg.cache_bytes = size_t(64) << 20;
  cfg.batch.max_delay = std::chrono::milliseconds(1);
  return cfg;
}

/// One serving daemon: its worker pool, its RpcServer, and the thread
/// inside run(). Destruction stops and joins, so a test that returns early
/// (a failed ASSERT) still tears its daemon down cleanly.
class LiveDaemon {
 public:
  explicit LiveDaemon(rpc::ServerConfig cfg, size_t threads = 4)
      : pool_(threads), server_(std::move(cfg), pool_), serving_([this] {
          try {
            server_.run();
          } catch (const std::exception& e) {
            ADD_FAILURE() << "RpcServer::run threw: " << e.what();
          }
        }) {}
  ~LiveDaemon() { stop(); }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  /// Graceful shutdown: stop() and join run(). The server stays readable
  /// (its stats describe the drained daemon). Idempotent.
  void stop() {
    if (!serving_.joinable()) return;
    server_.stop();
    serving_.join();
  }

  uint16_t port() const { return server_.port(); }
  rpc::RpcServer& server() { return server_; }
  service::ThreadPool& pool() { return pool_; }

 private:
  service::ThreadPool pool_;
  rpc::RpcServer server_;
  std::thread serving_;
};

/// A raw loopback TCP connection, for bytes RpcClient refuses to emit:
/// malformed frames, a spent deadline budget.
class RawConn {
 public:
  /// Connects to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit RawConn(uint16_t port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("raw connect failed");
    }
  }
  ~RawConn() { ::close(fd_); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  /// Sends every byte; stops early, silently, once the peer has closed.
  void send_all(std::span<const uint8_t> data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += size_t(n);
    }
  }
  /// Sends `payload` as one length-prefixed frame.
  void send_frame(const Bytes& payload) {
    Bytes framed;
    rpc::append_frame(framed, payload);
    send_all(framed);
  }
  /// Half-closes: the peer reads EOF after the bytes already sent.
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }
  /// Blocks until the peer closes; returns the bytes read until EOF.
  size_t read_to_eof() {
    uint8_t buf[4096];
    size_t total = 0;
    for (;;) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return total;
      total += size_t(n);
    }
  }
  /// Sends `payload` as one frame and reads back one response frame; empty
  /// when the peer closes first.
  Bytes round_trip(const Bytes& payload) {
    send_frame(payload);
    uint8_t chunk[4096];
    rpc::FrameBuffer fb;
    Bytes frame;
    for (;;) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return Bytes{};
      fb.feed({chunk, size_t(n)});
      if (fb.next(frame) == rpc::FrameBuffer::Result::kFrame) return frame;
    }
  }

 private:
  int fd_;
};

}  // namespace bnr::testfx
