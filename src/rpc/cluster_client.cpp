#include "rpc/cluster_client.hpp"

#include <algorithm>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/sha256.hpp"
#include "obs/log.hpp"

namespace bnr::rpc {

namespace {

/// Canonical "<scheme>:<pk-digest>" — byte-for-byte the key the daemon's
/// handle_register computes, so the ring and the server-side cache agree on
/// tenant identity.
std::string canonical_routing_key(const threshold::Scheme& scheme,
                                  std::span<const uint8_t> canonical_pk) {
  Sha256 h;
  h.update(canonical_pk);
  return std::string(scheme.name()) + ":" + to_hex(h.finalize());
}

/// How the cluster reacts to a node-call failure. Order matters in the
/// classifier: RetriesExhausted/DeadlineExceeded ARE RpcErrors, so they
/// must be caught before the base class.
enum class ErrClass {
  kSemantic,  // the server ANSWERED a refusal: the request's fault, rethrow
  kNodeDead,  // unreachable / poisoned / retry budget exhausted: mark down
  kSlow,      // blew the deadline but may recover: hop, no down-mark
  kOther,     // not a cluster-understood failure: rethrow
};

ErrClass classify(const std::exception_ptr& ep) {
  try {
    std::rethrow_exception(ep);
  } catch (const RetriesExhausted&) {
    return ErrClass::kNodeDead;  // persistent BUSY or unreconnectable
  } catch (const DeadlineExceeded&) {
    return ErrClass::kSlow;
  } catch (const RpcError&) {
    return ErrClass::kSemantic;
  } catch (const ProtocolError&) {
    return ErrClass::kNodeDead;  // poisoned session
  } catch (const std::system_error&) {
    return ErrClass::kNodeDead;  // dial failure / down-backoff pending
  } catch (...) {
    return ErrClass::kOther;
  }
}

}  // namespace

ClusterClient::ClusterClient(ClusterConfig cfg)
    : cfg_(std::move(cfg)),
      params_(threshold::SystemParams::derive(cfg_.params_label)),
      registry_(params_) {
  if (cfg_.nodes.empty())
    throw std::invalid_argument("cluster: at least one node endpoint");
  if (cfg_.virtual_nodes == 0)
    throw std::invalid_argument("cluster: virtual_nodes must be >= 1");
  if (cfg_.max_failover_hops == 0)
    cfg_.max_failover_hops = cfg_.nodes.size() - 1;
  ring_.reserve(cfg_.nodes.size() * cfg_.virtual_nodes);
  for (size_t i = 0; i < cfg_.nodes.size(); ++i) {
    nodes_.push_back(std::make_unique<Node>());
    nodes_.back()->ep = cfg_.nodes[i];
    for (size_t v = 0; v < cfg_.virtual_nodes; ++v)
      ring_.emplace_back(
          ring_hash(cfg_.nodes[i].label() + "#" + std::to_string(v)),
          static_cast<uint32_t>(i));
  }
  std::sort(ring_.begin(), ring_.end());
}

ClusterClient::~ClusterClient() = default;

uint64_t ClusterClient::ring_hash(const std::string& s) const {
  auto d = Sha256::hash(s);
  uint64_t h = 0;
  for (int i = 0; i < 8; ++i) h = (h << 8) | d[i];
  return h;
}

std::vector<size_t> ClusterClient::route_order_for(
    const std::string& routing_key) const {
  uint64_t h = ring_hash(routing_key);
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, uint32_t(0)));
  std::vector<size_t> order;
  std::vector<bool> seen(nodes_.size(), false);
  for (size_t walked = 0; walked < ring_.size() && order.size() < nodes_.size();
       ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->second]) {
      seen[it->second] = true;
      order.push_back(it->second);
    }
  }
  return order;
}

std::string ClusterClient::routing_key(const std::string& key) const {
  std::lock_guard<std::mutex> l(route_m_);
  auto it = route_key_.find(key);
  return it == route_key_.end() ? std::string() : it->second;
}

size_t ClusterClient::route(const std::string& key) const {
  return route_order(key)[0];
}

std::vector<size_t> ClusterClient::route_order(const std::string& key) const {
  std::string rk = routing_key(key);
  return route_order_for(rk.empty() ? key : rk);
}

RpcClient& ClusterClient::node_client(size_t i) { return ensure_client(i); }

RpcClient& ClusterClient::ensure_client(size_t i) {
  Node& n = *nodes_[i];
  std::lock_guard<std::mutex> l(n.m);
  if (n.client && !n.client->closed()) return *n.client;
  auto now = Clock::now();
  if (n.client == nullptr && now < n.retry_at)
    throw std::system_error(
        std::make_error_code(std::errc::host_unreachable),
        "cluster node " + n.ep.label() + " down (backoff)");
  n.client.reset();
  try {
    auto c = std::make_unique<RpcClient>(n.ep.host, n.ep.port, cfg_.client);
    if (!cfg_.admin_token.empty()) c->set_admin_token(cfg_.admin_token);
    n.client = std::move(c);
  } catch (...) {
    n.retry_at = now + cfg_.down_backoff;
    BNR_LOG(obs::LogLevel::kWarn, "cluster", "dial_failed",
            obs::kv("node", n.ep.label()));
    throw;
  }
  // A node that just (re)joined replays its unacked replication suffix so
  // failover traffic finds every tenant registered. Best-effort: a failure
  // here leaves the entries unacked for the next redial or resync().
  replay_unacked(i, *n.client);
  return *n.client;
}

void ClusterClient::mark_down(size_t i) {
  Node& n = *nodes_[i];
  std::lock_guard<std::mutex> l(n.m);
  // Already down with a probe pending: keep the existing retry_at. The
  // backoff-pending throw out of ensure_client classifies as kNodeDead too,
  // and extending the window on every routed call would keep a revived
  // node down for as long as traffic flows.
  if (!n.client && n.retry_at > Clock::now()) return;
  n.client.reset();
  n.retry_at = Clock::now() + cfg_.down_backoff;
  BNR_LOG(obs::LogLevel::kWarn, "cluster", "node_down",
          obs::kv("node", n.ep.label()) +
              obs::kv("backoff_ms", uint64_t(cfg_.down_backoff.count())));
}

size_t ClusterClient::send_entry(RpcClient& c, const LogEntry& e) {
  // The bool the daemon returns ("dedup hit") is not replication state;
  // only the round trip completing matters here.
  if (e.committee)
    c.register_committee(e.key, e.scheme, e.com).get();
  else
    c.register_key(e.key, e.scheme, e.pk).get();
  return 1;
}

void ClusterClient::replay_unacked(size_t i, RpcClient& c) {
  // Snapshot the unacked indices under the log lock, send outside it (a
  // register round-trip under log_m_ would serialize every other
  // registration behind one slow node).
  std::vector<size_t> pending;
  {
    std::lock_guard<std::mutex> l(log_m_);
    for (size_t j = 0; j < log_.size(); ++j)
      if (!log_[j].acked[i]) pending.push_back(j);
  }
  for (size_t j : pending) {
    LogEntry copy;
    {
      std::lock_guard<std::mutex> l(log_m_);
      if (log_[j].acked[i]) continue;  // a concurrent resync won the race
      copy = log_[j];
    }
    try {
      send_entry(c, copy);
    } catch (...) {
      return;  // node died mid-replay; the rest stays unacked
    }
    std::lock_guard<std::mutex> l(log_m_);
    if (!log_[j].acked[i]) {
      log_[j].acked[i] = true;
      replicated_.fetch_add(1, std::memory_order_relaxed);
      resyncs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

ClusterRegisterOutcome ClusterClient::replicate(LogEntry e) {
  e.acked.assign(nodes_.size(), false);
  size_t slot;
  {
    std::lock_guard<std::mutex> l(log_m_);
    slot = log_.size();
    log_.push_back(e);
  }
  ClusterRegisterOutcome out;
  out.acked.assign(nodes_.size(), false);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    try {
      RpcClient& c = ensure_client(i);
      // ensure_client may already have replayed this entry on a fresh dial.
      bool already;
      {
        std::lock_guard<std::mutex> l(log_m_);
        already = log_[slot].acked[i];
      }
      if (!already) {
        send_entry(c, e);
        std::lock_guard<std::mutex> l(log_m_);
        if (!log_[slot].acked[i]) {
          log_[slot].acked[i] = true;
          replicated_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      out.acked[i] = true;
      ++out.acks;
    } catch (...) {
      ErrClass ec = classify(std::current_exception());
      // A refusal the node ANSWERED (bad token, bad material) would repeat
      // on every replay too: surface it loudly instead of logging an
      // eternally-unacked entry.
      if (ec == ErrClass::kSemantic) throw;
      if (ec == ErrClass::kNodeDead) mark_down(i);
      // Down/slow node: the entry stays unacked for redial or resync().
    }
  }
  return out;
}

ClusterRegisterOutcome ClusterClient::register_key(const std::string& key,
                                                   threshold::SchemeId scheme,
                                                   Bytes pk_bytes) {
  const threshold::Scheme& s = registry_.at(scheme);  // throws on unknown id
  Bytes canonical = s.canonical_public_key(pk_bytes);  // throws on bad pk
  {
    std::lock_guard<std::mutex> l(route_m_);
    route_key_[key] = canonical_routing_key(s, canonical);
  }
  LogEntry e;
  e.key = key;
  e.scheme = scheme;
  e.committee = false;
  e.pk = std::move(pk_bytes);
  return replicate(std::move(e));
}

ClusterRegisterOutcome ClusterClient::register_committee(
    const std::string& key, threshold::SchemeId scheme,
    const threshold::Committee& committee) {
  const threshold::Scheme& s = registry_.at(scheme);
  Bytes canonical = s.canonical_public_key(committee.pk);
  {
    std::lock_guard<std::mutex> l(route_m_);
    route_key_[key] = canonical_routing_key(s, canonical);
  }
  LogEntry e;
  e.key = key;
  e.scheme = scheme;
  e.committee = true;
  e.com = committee;
  return replicate(std::move(e));
}

size_t ClusterClient::resync() {
  size_t before = resyncs_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    bool lagging = false;
    {
      std::lock_guard<std::mutex> l(log_m_);
      for (const auto& e : log_)
        if (!e.acked[i]) {
          lagging = true;
          break;
        }
    }
    if (!lagging) continue;
    try {
      RpcClient& c = ensure_client(i);  // redial already replays
      replay_unacked(i, c);             // and again for an existing session
    } catch (...) {
      // still down; entries stay unacked
    }
  }
  return resyncs_.load(std::memory_order_relaxed) - before;
}

template <class Fn>
auto ClusterClient::with_failover(const std::string& key, Fn&& fn)
    -> decltype(fn(std::declval<RpcClient&>())) {
  std::vector<size_t> order = route_order(key);
  size_t tries = std::min(order.size(), cfg_.max_failover_hops + 1);
  std::exception_ptr last;
  for (size_t hop = 0; hop < tries; ++hop) {
    try {
      RpcClient& c = ensure_client(order[hop]);
      auto r = fn(c);
      if (hop == 0)
        routed_.fetch_add(1, std::memory_order_relaxed);
      else
        failovers_.fetch_add(1, std::memory_order_relaxed);
      return r;
    } catch (...) {
      last = std::current_exception();
      ErrClass ec = classify(last);
      if (ec == ErrClass::kSemantic || ec == ErrClass::kOther) throw;
      // A dead node is marked down so the NEXT routed call skips straight
      // to the successor instead of re-paying the retry budget here.
      if (ec == ErrClass::kNodeDead) mark_down(order[hop]);
      BNR_LOG(obs::LogLevel::kInfo, "cluster", "failover_hop",
              obs::kv("node", cfg_.nodes[order[hop]].label()) +
                  obs::kv("hop", uint64_t(hop)) +
                  obs::kv("dead", ec == ErrClass::kNodeDead));
    }
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  BNR_LOG(obs::LogLevel::kWarn, "cluster", "failover_exhausted",
          obs::kv("key", key) + obs::kv("hops", uint64_t(tries)));
  std::rethrow_exception(last);
}

bool ClusterClient::verify(const std::string& key, Bytes msg, Bytes sig_bytes,
                           RequestOptions opts) {
  return with_failover(key, [&](RpcClient& c) {
    return c.verify_bytes(key, msg, sig_bytes, opts).get();
  });
}

std::vector<bool> ClusterClient::batch_verify(
    const std::string& key, std::vector<std::pair<Bytes, Bytes>> items,
    RequestOptions opts) {
  return with_failover(key, [&](RpcClient& c) {
    return c.batch_verify_bytes(key, items, opts).get();
  });
}

CombineResult ClusterClient::combine(const std::string& key, Bytes msg,
                                     std::vector<Bytes> partials,
                                     RequestOptions opts) {
  // COMBINE mutates nothing server-side (a pure computation over the
  // registered committee), so re-running it on a successor after an
  // ambiguous connection loss is safe even though the wire-level method is
  // not blindly resendable.
  return with_failover(key, [&](RpcClient& c) {
    return c.combine_bytes(key, msg, partials, opts).get();
  });
}

ClusterRollup ClusterClient::stats_rollup() {
  ClusterRollup roll;
  roll.nodes.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    ClusterNodeRow& row = roll.nodes[i];
    row.endpoint = cfg_.nodes[i];
    try {
      RpcClient& c = ensure_client(i);
      auto stats_f = c.stats();
      auto health_f = c.health();
      row.stats = stats_f.get();
      row.health = health_f.get();
      row.up = true;
      ++roll.nodes_up;
    } catch (...) {
      if (classify(std::current_exception()) == ErrClass::kNodeDead)
        mark_down(i);
      continue;
    }
    roll.total.merge(row.stats);
  }
  return roll;
}

ClusterMetricsRollup ClusterClient::metrics_rollup(uint8_t flags) {
  ClusterMetricsRollup roll;
  roll.nodes.resize(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    ClusterMetricsRollup::NodeRow& row = roll.nodes[i];
    row.endpoint = cfg_.nodes[i];
    try {
      RpcClient& c = ensure_client(i);
      row.snapshot = c.metrics(flags).get();
      row.up = true;
      ++roll.nodes_up;
    } catch (...) {
      if (classify(std::current_exception()) == ErrClass::kNodeDead)
        mark_down(i);
      continue;
    }
    roll.total.merge(row.snapshot);
  }
  return roll;
}

ClusterStats ClusterClient::cluster_stats() const {
  ClusterStats s;
  s.routed = routed_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.replicated = replicated_.load(std::memory_order_relaxed);
  s.resyncs = resyncs_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bnr::rpc
