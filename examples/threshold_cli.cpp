// A file-based CLI around the main scheme — the shape of a real deployment:
// `keygen` simulates the servers' DKG and writes each server's share to its
// own file (in production each server keeps only its own); `sign` runs on
// one server's share; `combine`/`verify` need only public material.
//
//   ./threshold_cli keygen  <dir> <label> <n> <t>
//   ./threshold_cli sign    <dir> <server-index> <message>
//   ./threshold_cli combine <dir> <message> <partial-hex>...
//   ./threshold_cli verify  <dir> <message> <signature-hex>
//   ./threshold_cli daemon  [port] [cache-mb] [label] [--admin-token=T]
//                           [--max-connections=N]
//   ./threshold_cli client  <host> <port> [tenants] [requests] [label]
//                           [--admin-token=T]
//   ./threshold_cli cluster [nodes] [tenants] [requests]
//   ./threshold_cli metrics <host:port> [--raw]
//   ./threshold_cli cluster-metrics <host:port>... [--raw]
//
// `metrics` scrapes one daemon's METRICS plane (per-stage latency
// histograms, named counters/gauges, the slow-request trace ring) and
// prints a human summary; --raw prints the server-rendered Prometheus text
// exposition instead — pipe it straight into promtool or a file_sd scrape.
// `cluster-metrics` does the same across N daemons, merged client-side
// (counters summed, histogram buckets merged element-wise, globally
// slowest traces kept).
//
// `cluster` spins up N local daemons behind one ClusterClient (consistent-
// hash tenant routing, replicated registrations, failover) and kills a node
// mid-run to show traffic re-routing; it exits 1 if any verify fails.
//
// The daemon's ADMIN surface (REGISTER_TENANT) can be gated with a shared
// secret: pass --admin-token=... (or set BNR_ADMIN_TOKEN) on both sides.
// One daemon serves EVERY scheme in the registry (RO, DLIN, Agg, BLS)
// through the same cache and wire path.
//
// `daemon` is the serving entry point: a long-running RPC daemon speaking
// the length-prefixed binary wire protocol (src/rpc/wire.hpp) in front of
// the multi-tenant verification/combine services and the sharded key cache.
// `client` drives Zipf-distributed multi-tenant traffic (with a sprinkling
// of forgeries) against a running daemon over TCP — the shape of a
// production gateway's traffic, now crossing a real socket. The daemon's
// wire behaviour is tested by ctest: test_rpc (every scheme's round trips,
// BATCH_VERIFY, the admin gate, METRICS, drain on shutdown), test_faults
// (deadlines, BUSY and retries) and test_cluster (replication, failover).
//
// Run without arguments for a self-contained demo in a temp directory.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "rpc/cluster_client.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/rpc_client.hpp"
#include "rpc/rpc_server.hpp"
#include "service/key_cache.hpp"
#include "service/thread_pool.hpp"
#include "threshold/ro_scheme.hpp"

using namespace bnr;
using namespace bnr::threshold;
namespace fs = std::filesystem;

namespace {

void write_file(const fs::path& p, const std::string& contents) {
  std::ofstream out(p);
  out << contents << "\n";
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::string s;
  in >> s;
  return s;
}

std::span<const uint8_t> as_span(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

RoScheme load_scheme(const fs::path& dir) {
  return RoScheme(SystemParams::derive(read_file(dir / "label")));
}

int cmd_keygen(const fs::path& dir, const std::string& label, size_t n,
               size_t t) {
  fs::create_directories(dir);
  RoScheme scheme(SystemParams::derive(label));
  Rng rng = Rng::from_entropy();
  KeyMaterial km = scheme.dist_keygen(n, t, rng);
  write_file(dir / "label", label);
  write_file(dir / "n", std::to_string(n));
  write_file(dir / "t", std::to_string(t));
  write_file(dir / "public_key", to_hex(km.pk.serialize()));
  for (uint32_t i = 1; i <= n; ++i) {
    write_file(dir / ("share_" + std::to_string(i)),
               to_hex(km.shares[i - 1].serialize()));
    write_file(dir / ("vk_" + std::to_string(i)),
               to_hex(km.vks[i - 1].serialize()));
  }
  printf("wrote key material for n=%zu t=%zu under %s (DKG rounds: %zu)\n", n,
         t, dir.string().c_str(), km.transcript.rounds);
  return 0;
}

int cmd_sign(const fs::path& dir, uint32_t index, const std::string& msg) {
  RoScheme scheme = load_scheme(dir);
  KeyShare share = KeyShare::deserialize(
      from_hex(read_file(dir / ("share_" + std::to_string(index)))));
  auto partial = scheme.share_sign(share, as_span(msg));
  printf("%s\n", to_hex(partial.serialize()).c_str());
  return 0;
}

int cmd_combine(const fs::path& dir, const std::string& msg,
                std::span<char*> partial_hexes) {
  RoScheme scheme = load_scheme(dir);
  size_t n = std::stoul(read_file(dir / "n"));
  size_t t = std::stoul(read_file(dir / "t"));
  KeyMaterial km;  // only the public parts are needed to combine
  km.n = n;
  km.t = t;
  km.pk = PublicKey::deserialize(from_hex(read_file(dir / "public_key")));
  for (uint32_t i = 1; i <= n; ++i)
    km.vks.push_back(VerificationKey::deserialize(
        from_hex(read_file(dir / ("vk_" + std::to_string(i))))));
  std::vector<PartialSignature> parts;
  for (char* hex : partial_hexes)
    parts.push_back(PartialSignature::deserialize(from_hex(hex)));
  Signature sig = scheme.combine(km, as_span(msg), parts);
  printf("%s\n", to_hex(sig.serialize()).c_str());
  return 0;
}

int cmd_verify(const fs::path& dir, const std::string& msg,
               const std::string& sig_hex) {
  RoScheme scheme = load_scheme(dir);
  PublicKey pk = PublicKey::deserialize(from_hex(read_file(dir / "public_key")));
  Signature sig = Signature::deserialize(from_hex(sig_hex));
  bool ok = scheme.verify(pk, as_span(msg), sig);
  printf("%s\n", ok ? "ACCEPT" : "REJECT");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// RPC daemon / client / smoke

rpc::RpcServer* g_daemon = nullptr;

extern "C" void daemon_signal(int) {
  if (g_daemon) g_daemon->stop();  // atomic store + pipe write: signal-safe
}

int cmd_daemon(uint16_t port, size_t cache_mb, const std::string& label,
               const std::string& admin_token, size_t max_connections,
               size_t io_threads) {
  using namespace bnr::service;
  ThreadPool workers;
  rpc::ServerConfig cfg;
  cfg.port = port;
  cfg.params_label = label;
  cfg.admin_token = admin_token;
  cfg.cache_bytes = cache_mb << 20;
  // SIZE_MAX = flag absent (keep the ServerConfig default); an explicit
  // --max-connections=0 means unlimited, matching the config contract.
  if (max_connections != SIZE_MAX) cfg.max_connections = max_connections;
  // 0 = auto (min(4, cores/2)); an explicit count pins the loop fan-out.
  if (io_threads != SIZE_MAX) cfg.io_threads = io_threads;
  // Operator-facing chaos switch: BNR_FAULT_SEED + BNR_FAULT_SPEC install a
  // deterministic fault schedule into this daemon (no-op when unset).
  rpc::FaultInjector::install_from_env();
  rpc::RpcServer server(cfg, workers);
  g_daemon = &server;
  std::signal(SIGINT, daemon_signal);
  std::signal(SIGTERM, daemon_signal);
  printf("daemon listening on %s:%u (params label \"%s\", cache %zu MB, "
         "admin %s, conn cap %zu, io loops %zu)\n",
         cfg.bind_addr.c_str(), server.port(), label.c_str(), cache_mb,
         admin_token.empty() ? "open" : "token-gated", cfg.max_connections,
         server.io_loops());
  fflush(stdout);  // scripts read the bound port from this line
  server.run();
  auto st = server.snapshot_stats();
  printf("daemon drained: %llu frames over %llu connections, %llu verifies "
         "(%llu folds), %llu combines, %llu protocol errors\n",
         (unsigned long long)st.frames_in, (unsigned long long)st.connections,
         (unsigned long long)st.verify_submitted,
         (unsigned long long)st.verify_batches,
         (unsigned long long)st.combines,
         (unsigned long long)st.protocol_errors);
  g_daemon = nullptr;
  return 0;
}

// Multi-tenant Zipf traffic against a running daemon: `tenants` key-ids
// mapped onto a few real committees (a real deployment has one committee
// per tenant; reusing key material keeps the demo's DKG cost bounded — and
// showcases the daemon's pk-digest dedup: N tenants, 4 prepared entries),
// verify requests with a sprinkling of forgeries, and a few combines.
int cmd_client(const std::string& host, uint16_t port, size_t tenants,
               size_t requests, const std::string& label,
               const std::string& admin_token) {
  using namespace bnr::service;
  if (tenants == 0 || requests == 0) {
    fprintf(stderr, "client: tenants and requests must be > 0\n");
    return 2;
  }
  RoScheme scheme(SystemParams::derive(label));
  Rng rng = Rng::from_entropy();

  const size_t committees = std::min<size_t>(tenants, 4);
  printf("running Dist-Keygen for %zu committees (n=3, t=1)...\n", committees);
  std::vector<KeyMaterial> kms;
  for (size_t c = 0; c < committees; ++c)
    kms.push_back(scheme.dist_keygen(3, 1, rng));

  constexpr size_t kMsgsPerCommittee = 16;
  std::vector<std::vector<std::pair<Bytes, Signature>>> pool_msgs(committees);
  for (size_t c = 0; c < committees; ++c)
    for (size_t j = 0; j < kMsgsPerCommittee; ++j) {
      Bytes m = to_bytes("serve " + std::to_string(c) + "/" + std::to_string(j));
      std::vector<PartialSignature> parts;
      for (uint32_t i = 1; i <= 2; ++i)
        parts.push_back(scheme.share_sign(kms[c].shares[i - 1], m));
      pool_msgs[c].push_back({m, scheme.combine_unchecked(1, parts)});
    }

  rpc::RpcClient client(host, port);
  client.set_admin_token(admin_token);
  printf("registering %zu tenants over %zu committees...\n", tenants,
         committees);
  size_t deduped = 0;
  {
    std::vector<std::future<bool>> regs;
    regs.reserve(tenants);
    for (size_t tnt = 0; tnt < tenants; ++tnt)
      regs.push_back(client.register_ro_committee(
          "tenant-" + std::to_string(tnt), kms[tnt % committees]));
    for (auto& f : regs) deduped += f.get() ? 1 : 0;
  }
  printf("  %zu registrations deduplicated onto already-prepared keys\n",
         deduped);

  ZipfSampler zipf(tenants, 1.0);
  Rng traffic = rng.fork("traffic");
  std::vector<std::pair<std::future<bool>, bool>> futs;
  futs.reserve(requests);
  auto start = std::chrono::steady_clock::now();
  for (size_t j = 0; j < requests; ++j) {
    size_t tenant = zipf.sample(traffic);
    std::string key = "tenant-" + std::to_string(tenant);
    auto& [m, s] = pool_msgs[tenant % committees]
                            [traffic.uniform(kMsgsPerCommittee)];
    bool forge = j % 16 == 15;  // every 16th request is an attack
    Signature sig = s;
    if (forge)
      sig.z = (G1::from_affine(sig.z) + G1::generator()).to_affine();
    futs.emplace_back(client.verify(key, m, sig), !forge);
  }
  size_t correct = 0;
  for (auto& [f, expected] : futs) correct += f.get() == expected;
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();

  // A handful of combines ride along on the same connection.
  size_t combines_ok = 0;
  for (size_t c = 0; c < committees; ++c) {
    Bytes m = to_bytes("client combine " + std::to_string(c));
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= 2; ++i)
      parts.push_back(scheme.share_sign(kms[c].shares[i - 1], m));
    Signature sig =
        client.combine_sync("tenant-" + std::to_string(c), m, parts);
    combines_ok += scheme.verify(kms[c].pk, m, sig) ? 1 : 0;
  }

  auto st = client.stats_sync();
  printf("\n%zu requests in %.0f ms (%.0f req/s over the socket): %llu "
         "accepted, %llu rejected, %zu/%zu attributed correctly; %zu/%zu "
         "combines ok\n",
         requests, ms, double(requests) / ms * 1000.0,
         (unsigned long long)st.verify_accepted,
         (unsigned long long)st.verify_rejected, correct, requests,
         combines_ok, committees);
  printf("daemon: %llu tenants (%llu deduped onto shared pks), %llu per-key "
         "folds, cache %llu hits / %llu misses, %llu resident entries "
         "(%.1f MB)\n",
         (unsigned long long)st.tenants, (unsigned long long)st.deduped_keys,
         (unsigned long long)st.verify_batches,
         (unsigned long long)st.cache_hits,
         (unsigned long long)st.cache_misses,
         (unsigned long long)st.cache_resident_entries,
         double(st.cache_resident_bytes) / (1 << 20));
  return (correct == requests && combines_ok == committees) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Cluster front end: N in-process daemons behind one ClusterClient.

/// N daemons on ephemeral loopback ports, individually killable — the local
/// stand-in for a real multi-host deployment.
struct LocalCluster {
  service::ThreadPool pool;
  std::vector<std::unique_ptr<rpc::RpcServer>> servers;
  std::vector<std::thread> serving;

  LocalCluster(size_t n, const std::string& label) {
    for (size_t i = 0; i < n; ++i) {
      rpc::ServerConfig cfg;
      cfg.port = 0;
      cfg.params_label = label;
      cfg.cache_bytes = size_t(64) << 20;
      cfg.batch.max_delay = std::chrono::milliseconds(1);
      servers.push_back(std::make_unique<rpc::RpcServer>(cfg, pool));
      serving.emplace_back([s = servers.back().get()] { s->run(); });
    }
  }
  ~LocalCluster() {
    for (size_t i = 0; i < servers.size(); ++i) kill(i);
  }
  void kill(size_t i) {
    if (!serving[i].joinable()) return;
    servers[i]->stop();
    serving[i].join();
  }
  rpc::ClusterConfig config(const std::string& label) const {
    rpc::ClusterConfig cfg;
    for (const auto& s : servers) cfg.nodes.push_back({"127.0.0.1", s->port()});
    cfg.params_label = label;
    cfg.down_backoff = std::chrono::milliseconds(200);
    cfg.client.retry.max_attempts = 2;
    cfg.client.retry.initial_backoff = std::chrono::milliseconds(5);
    cfg.client.retry.max_backoff = std::chrono::milliseconds(40);
    return cfg;
  }
};

void print_rollup(rpc::ClusterClient& cluster) {
  auto roll = cluster.stats_rollup();
  printf("\ncluster rollup: %zu nodes, %zu up\n", roll.nodes.size(),
         roll.nodes_up);
  printf("  %-16s %-5s %9s %9s %9s %9s %9s\n", "node", "state", "open",
         "accepts", "submitted", "accepted", "rejected");
  for (const auto& row : roll.nodes)
    printf("  %-16s %-5s %9llu %9llu %9llu %9llu %9llu\n",
           row.endpoint.label().c_str(), row.up ? "up" : "DOWN",
           (unsigned long long)row.stats.open_connections,
           (unsigned long long)row.stats.connections,
           (unsigned long long)row.stats.verify_submitted,
           (unsigned long long)row.stats.verify_accepted,
           (unsigned long long)row.stats.verify_rejected);
  printf("  %-16s %-5s %9llu %9llu %9llu %9llu %9llu\n", "TOTAL", "",
         (unsigned long long)roll.total.open_connections,
         (unsigned long long)roll.total.connections,
         (unsigned long long)roll.total.verify_submitted,
         (unsigned long long)roll.total.verify_accepted,
         (unsigned long long)roll.total.verify_rejected);
  auto cs = cluster.cluster_stats();
  printf("client: routed %llu, failovers %llu, failed %llu, replicated %llu "
         "acks, resyncs %llu\n",
         (unsigned long long)cs.routed, (unsigned long long)cs.failovers,
         (unsigned long long)cs.failed, (unsigned long long)cs.replicated,
         (unsigned long long)cs.resyncs);
}

/// `cluster [nodes] [tenants] [requests]`: a self-contained demo — spin up
/// N local daemons, replicate tenant registrations across all of them,
/// route verify traffic by consistent hash, then kill one node mid-run and
/// show failover keeping the traffic flowing.
int cmd_cluster(size_t nodes, size_t tenants, size_t requests) {
  const std::string label = "cli-cluster/v1";
  if (nodes < 2) {
    fprintf(stderr, "cluster: need at least 2 nodes\n");
    return 2;
  }
  printf("starting %zu local daemons...\n", nodes);
  LocalCluster lc(nodes, label);
  rpc::ClusterClient cluster(lc.config(label));

  RoScheme ro(SystemParams::derive(label));
  Rng rng("cli-cluster");
  constexpr size_t kPks = 4;
  std::vector<KeyMaterial> kms;
  std::vector<Bytes> msg(kPks);
  std::vector<Bytes> sig(kPks);
  for (size_t p = 0; p < kPks; ++p) {
    kms.push_back(ro.dist_keygen(3, 1, rng));
    msg[p] = to_bytes("cluster demo " + std::to_string(p));
    std::vector<PartialSignature> parts;
    for (uint32_t i = 1; i <= 2; ++i)
      parts.push_back(ro.share_sign(kms[p].shares[i - 1], msg[p]));
    sig[p] = ro.combine_unchecked(1, parts).serialize();
  }

  printf("replicating %zu tenant registrations to every node...\n", tenants);
  for (size_t t = 0; t < tenants; ++t) {
    const auto& km = kms[t % kPks];
    Committee c;
    c.pk = km.pk.serialize();
    c.n = uint32_t(km.n);
    c.t = uint32_t(km.t);
    for (const auto& vk : km.vks) c.vks.push_back(vk.serialize());
    auto out = cluster.register_committee("t-" + std::to_string(t),
                                          SchemeId::kRo, c);
    if (!out.all()) {
      fprintf(stderr, "registration of t-%zu only acked %zu/%zu nodes\n", t,
              out.acks, out.acked.size());
      return 1;
    }
  }

  printf("driving %zu routed verifies (killing node 0 halfway)...\n",
         requests);
  size_t ok = 0, failed = 0;
  for (size_t r = 0; r < requests; ++r) {
    if (r == requests / 2) {
      printf("  ... killing %s\n", cluster.endpoint(0).label().c_str());
      lc.kill(0);
    }
    size_t t = rng.uniform(tenants);
    try {
      if (cluster.verify("t-" + std::to_string(t), msg[t % kPks],
                         sig[t % kPks]))
        ++ok;
      else
        ++failed;
    } catch (const std::exception&) {
      ++failed;
    }
  }
  printf("verified %zu/%zu (%zu failed)\n", ok, requests, failed);
  print_rollup(cluster);
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// METRICS scrape fronts.

std::pair<std::string, uint16_t> parse_endpoint(const std::string& s) {
  size_t pos = s.rfind(':');
  if (pos == std::string::npos || pos == 0 || pos + 1 >= s.size())
    throw std::invalid_argument("endpoint must be host:port, got \"" + s +
                                "\"");
  return {s.substr(0, pos),
          static_cast<uint16_t>(std::stoul(s.substr(pos + 1)))};
}

const char* method_name(uint8_t m) {
  switch (static_cast<rpc::Method>(m)) {
    case rpc::Method::kPing: return "PING";
    case rpc::Method::kVerify: return "VERIFY";
    case rpc::Method::kBatchVerify: return "BATCH_VERIFY";
    case rpc::Method::kCombine: return "COMBINE";
    case rpc::Method::kRegisterTenant: return "REGISTER";
    case rpc::Method::kStats: return "STATS";
    case rpc::Method::kHealth: return "HEALTH";
    case rpc::Method::kMetrics: return "METRICS";
  }
  return "?";
}

void print_metrics_summary(const bnr::obs::MetricsSnapshot& m) {
  printf("points (%zu):\n", m.points.size());
  for (const auto& p : m.points) {
    std::string series =
        p.name + (p.labels.empty() ? "" : "{" + p.labels + "}");
    printf("  %-52s %-7s %llu\n", series.c_str(),
           p.kind == bnr::obs::MetricKind::kGauge ? "gauge" : "counter",
           (unsigned long long)p.value);
  }
  printf("histograms (%zu):\n", m.histograms.size());
  for (const auto& h : m.histograms) {
    std::string series =
        h.name + (h.labels.empty() ? "" : "{" + h.labels + "}");
    bool seconds = h.name.size() >= 8 &&
                   h.name.compare(h.name.size() - 8, 8, "_seconds") == 0;
    // Latency series record nanoseconds; display milliseconds.
    double scale = seconds ? 1e-6 : 1.0;
    const char* unit = seconds ? " ms" : "";
    printf("  %-52s count %-8llu p50 %.3f%s  p99 %.3f%s  max %.3f%s\n",
           series.c_str(), (unsigned long long)h.snap.count,
           double(h.snap.percentile(0.5)) * scale, unit,
           double(h.snap.percentile(0.99)) * scale, unit,
           double(h.snap.max) * scale, unit);
  }
  if (!m.slow_traces.empty()) {
    printf("slowest requests (%zu of cap %zu):\n", m.slow_traces.size(),
           m.slow_trace_cap);
    size_t shown = 0;
    for (const auto& t : m.slow_traces) {
      if (++shown > 8) break;
      printf("  id=%llu %s total %.3f ms |",
             (unsigned long long)t.request_id, method_name(t.method),
             double(t.total_ns) / 1e6);
      for (size_t s = 0; s < bnr::obs::kStageCount; ++s) {
        auto stage = static_cast<bnr::obs::Stage>(s);
        if (!t.has(stage)) continue;
        printf(" %s=%.3f", bnr::obs::stage_name(stage),
               double(t.offset_ns(stage)) / 1e6);
      }
      printf("\n");
    }
  }
}

int cmd_metrics(const std::string& endpoint, bool raw) {
  auto [host, port] = parse_endpoint(endpoint);
  rpc::RpcClient client(host, port);
  if (raw) {
    fputs(client.metrics_text_sync().c_str(), stdout);
    return 0;
  }
  print_metrics_summary(client.metrics_sync());
  return 0;
}

int cmd_cluster_metrics(const std::vector<std::string>& endpoints, bool raw,
                        const std::string& admin_token) {
  rpc::ClusterConfig cfg;
  for (const auto& e : endpoints) {
    auto [host, port] = parse_endpoint(e);
    cfg.nodes.push_back({host, port});
  }
  cfg.admin_token = admin_token;
  rpc::ClusterClient cluster(cfg);
  auto roll = cluster.metrics_rollup();
  if (raw) {
    fputs(bnr::obs::render_prometheus(roll.total).c_str(), stdout);
    return roll.nodes_up == roll.nodes.size() ? 0 : 1;
  }
  printf("cluster metrics: %zu nodes, %zu up\n", roll.nodes.size(),
         roll.nodes_up);
  for (const auto& row : roll.nodes)
    printf("  %-22s %s\n", row.endpoint.label().c_str(),
           row.up ? "up" : "DOWN");
  printf("\nmerged across up nodes:\n");
  print_metrics_summary(roll.total);
  return roll.nodes_up == roll.nodes.size() ? 0 : 1;
}

int demo() {
  fs::path dir = fs::temp_directory_path() / "bnr-cli-demo";
  fs::remove_all(dir);
  printf("No arguments: running a self-contained demo in %s\n\n",
         dir.string().c_str());
  if (cmd_keygen(dir, "cli-demo/v1", 5, 2) != 0) return 1;

  // Each "server" signs using only its own share file.
  RoScheme scheme = load_scheme(dir);
  std::string msg = "pay 10 coins to carol";
  std::vector<std::string> partials;
  for (uint32_t i : {1u, 3u, 5u}) {
    KeyShare share = KeyShare::deserialize(
        from_hex(read_file(dir / ("share_" + std::to_string(i)))));
    partials.push_back(
        to_hex(scheme.share_sign(share, as_span(msg)).serialize()));
    printf("server %u partial: %s...\n", i, partials.back().substr(0, 32).c_str());
  }
  std::vector<char*> argv;
  std::vector<std::string> storage = partials;
  for (auto& s : storage) argv.push_back(s.data());
  printf("\ncombining...\n");
  if (cmd_combine(dir, msg, argv) != 0) return 1;

  // Recompute the signature for the verify step.
  KeyMaterial km;
  km.n = 5;
  km.t = 2;
  km.pk = PublicKey::deserialize(from_hex(read_file(dir / "public_key")));
  for (uint32_t i = 1; i <= 5; ++i)
    km.vks.push_back(VerificationKey::deserialize(
        from_hex(read_file(dir / ("vk_" + std::to_string(i))))));
  std::vector<PartialSignature> parts;
  for (const auto& hex : partials)
    parts.push_back(PartialSignature::deserialize(from_hex(hex)));
  Signature sig = scheme.combine(km, as_span(msg), parts);
  printf("verifying...\n");
  return cmd_verify(dir, msg, to_hex(sig.serialize()));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Extract --key=value options anywhere on the command line; positional
    // arguments keep their old meanings. BNR_ADMIN_TOKEN is the env fallback
    // for --admin-token on both the daemon and the client.
    std::string admin_token;
    if (const char* env = std::getenv("BNR_ADMIN_TOKEN")) admin_token = env;
    size_t max_connections = SIZE_MAX;  // SIZE_MAX = not specified
    size_t io_threads = SIZE_MAX;       // SIZE_MAX = not specified (auto)
    bool raw = false;                   // metrics: Prometheus text, not summary
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--admin-token=", 0) == 0)
        admin_token = a.substr(strlen("--admin-token="));
      else if (a.rfind("--max-connections=", 0) == 0)
        max_connections = std::stoul(a.substr(strlen("--max-connections=")));
      else if (a.rfind("--io-threads=", 0) == 0)
        io_threads = std::stoul(a.substr(strlen("--io-threads=")));
      else if (a == "--raw")
        raw = true;
      else
        args.push_back(argv[i]);
    }
    argc = static_cast<int>(args.size());
    argv = args.data();

    if (argc < 2) return demo();
    std::string cmd = argv[1];
    if (cmd == "keygen" && argc == 6)
      return cmd_keygen(argv[2], argv[3], std::stoul(argv[4]),
                        std::stoul(argv[5]));
    if (cmd == "sign" && argc == 5)
      return cmd_sign(argv[2], static_cast<uint32_t>(std::stoul(argv[3])),
                      argv[4]);
    if (cmd == "combine" && argc >= 5)
      return cmd_combine(argv[2], argv[3],
                         std::span<char*>(argv + 4, argc - 4));
    if (cmd == "verify" && argc == 5) return cmd_verify(argv[2], argv[3], argv[4]);
    if (cmd == "daemon" && argc <= 5)
      return cmd_daemon(
          argc > 2 ? static_cast<uint16_t>(std::stoul(argv[2])) : 9137,
          argc > 3 ? std::stoul(argv[3]) : 256,
          argc > 4 ? argv[4] : "bnr-rpc/v1", admin_token, max_connections,
          io_threads);
    if (cmd == "client" && argc >= 4 && argc <= 7)
      return cmd_client(argv[2], static_cast<uint16_t>(std::stoul(argv[3])),
                        argc > 4 ? std::stoul(argv[4]) : 2000,
                        argc > 5 ? std::stoul(argv[5]) : 4000,
                        argc > 6 ? argv[6] : "bnr-rpc/v1", admin_token);
    if (cmd == "cluster" && argc <= 5)
      return cmd_cluster(argc > 2 ? std::stoul(argv[2]) : 3,
                         argc > 3 ? std::stoul(argv[3]) : 64,
                         argc > 4 ? std::stoul(argv[4]) : 512);
    if (cmd == "metrics" && argc == 3) return cmd_metrics(argv[2], raw);
    if (cmd == "cluster-metrics" && argc >= 3)
      return cmd_cluster_metrics(
          std::vector<std::string>(argv + 2, argv + argc), raw, admin_token);
    fprintf(stderr,
            "usage: %s keygen <dir> <label> <n> <t>\n"
            "       %s sign <dir> <server-index> <message>\n"
            "       %s combine <dir> <message> <partial-hex>...\n"
            "       %s verify <dir> <message> <signature-hex>\n"
            "       %s daemon [port] [cache-mb] [label] [--admin-token=T]"
            " [--max-connections=N] [--io-threads=N]\n"
            "       %s client <host> <port> [tenants] [requests] [label]"
            " [--admin-token=T]\n"
            "       %s cluster [nodes] [tenants] [requests]\n"
            "       %s metrics <host:port> [--raw]\n"
            "       %s cluster-metrics <host:port>... [--raw] [--admin-token=T]\n"
            "(--admin-token falls back to the BNR_ADMIN_TOKEN env var)\n",
            argv[0], argv[0], argv[0], argv[0], argv[0], argv[0], argv[0],
            argv[0], argv[0]);
    return 2;
  } catch (const std::exception& e) {
    fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
