// The traced run: the same request sequence replayed in-process into the
// services the daemon is built from, with spans recorded around every call
// into a layer from this file, then a ladder of direct calls into the field,
// curve, pairing, threshold and DKG layers, and the books closed against the
// untraced CPU cost per request.
#include <cstdio>
#include <unordered_map>

#include "bench.hpp"
#include "curve/g1.hpp"
#include "curve/point.hpp"
#include "pairing/pairing.hpp"
#include "rpc/rpc_server.hpp"
#include "service/key_cache.hpp"
#include "service/thread_pool.hpp"
#include "service/verification_service.hpp"
#include "threshold/scheme_registry.hpp"

namespace perfbench {

using namespace bnr;
using threshold::PreparedCombiner;
using threshold::PreparedVerifier;

namespace {

/// A span shared by several requests: a fold, a fallback verify, a combine
/// or a prepare. Its time is split evenly across `members`.
struct SharedSpan {
  Span span;
  std::vector<uint64_t> members;
  size_t key = 0;  // tenant / committee index (prepare spans)
};

/// Every span of the replay, appended from any thread.
class SpanLog {
 public:
  void add(Span s) {
    std::lock_guard<std::mutex> l(m_);
    spans_.push_back(s);
  }
  void add_shared(SharedSpan s) {
    std::lock_guard<std::mutex> l(m_);
    shared_.push_back(std::move(s));
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> l(m_);
    return spans_;
  }
  std::vector<SharedSpan> shared() const {
    std::lock_guard<std::mutex> l(m_);
    return shared_;
  }

 private:
  mutable std::mutex m_;
  std::vector<Span> spans_;
  std::vector<SharedSpan> shared_;
};

/// Maps a parsed handle back to the request that carries it, so a decorator
/// that only sees handles can name the fold's members.
class HandleIds {
 public:
  void put(const void* h, uint64_t id) {
    std::lock_guard<std::mutex> l(m_);
    ids_[h] = id;
  }
  void drop(const void* h) {
    std::lock_guard<std::mutex> l(m_);
    ids_.erase(h);
  }
  uint64_t get(const void* h) const {
    std::lock_guard<std::mutex> l(m_);
    auto it = ids_.find(h);
    return it == ids_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex m_;
  std::unordered_map<const void*, uint64_t> ids_;
};

class TracingVerifier final : public PreparedVerifier {
 public:
  TracingVerifier(std::unique_ptr<PreparedVerifier> inner, SpanLog& log,
                  const HandleIds& ids)
      : inner_(std::move(inner)), log_(log), ids_(ids) {}

  threshold::SchemeId scheme() const override { return inner_->scheme(); }

  bool verify(std::span<const uint8_t> msg,
              const threshold::SigHandle& sig) const override {
    const auto t0 = Clock::now();
    const bool ok = inner_->verify(msg, sig);
    log_.add_shared({{"verify", t0, Clock::now(), "service", 0},
                     {ids_.get(sig.obj.get())}});
    return ok;
  }

  bool batch_verify(std::span<const Bytes> msgs,
                    std::span<const threshold::SigHandle> sigs,
                    Rng& rng) const override {
    const auto t0 = Clock::now();
    const bool ok = inner_->batch_verify(msgs, sigs, rng);
    const auto t1 = Clock::now();
    std::vector<uint64_t> members;
    members.reserve(sigs.size());
    for (const auto& s : sigs) members.push_back(ids_.get(s.obj.get()));
    log_.add_shared({{"fold", t0, t1, "service", 0}, std::move(members)});
    return ok;
  }

  size_t cache_bytes() const override {
    return inner_->cache_bytes() + sizeof(*this);
  }

 private:
  std::unique_ptr<PreparedVerifier> inner_;
  SpanLog& log_;
  const HandleIds& ids_;
};

class TracingCombiner final : public PreparedCombiner {
 public:
  TracingCombiner(std::unique_ptr<PreparedCombiner> inner, SpanLog& log,
                  const HandleIds& ids)
      : inner_(std::move(inner)), log_(log), ids_(ids) {}

  threshold::SchemeId scheme() const override { return inner_->scheme(); }

  Bytes combine(std::span<const uint8_t> msg,
                std::span<const threshold::PartialHandle> parts, Rng& rng,
                const threshold::FoldEvaluator& evaluate,
                std::vector<uint32_t>* cheaters) const override {
    const auto t0 = Clock::now();
    Bytes out = inner_->combine(msg, parts, rng, evaluate, cheaters);
    log_.add_shared({{"combine", t0, Clock::now(), "service", 0},
                     {parts.empty() ? 0 : ids_.get(parts[0].obj.get())}});
    return out;
  }

  size_t cache_bytes() const override {
    return inner_->cache_bytes() + sizeof(*this);
  }

 private:
  std::unique_ptr<PreparedCombiner> inner_;
  SpanLog& log_;
  const HandleIds& ids_;
};

// ---------------------------------------------------------------------------
// Rung timing

volatile uint64_t g_sink = 0;

/// Median per-call time in microseconds of `fn`, timed in batches of about
/// 10 ms for at least `budget_ms` in total.
double rung_us(const std::function<void()>& fn, double budget_ms = 150) {
  fn();  // warm
  size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    if (ms_between(t0, Clock::now()) >= 2.0 || batch >= (size_t(1) << 24))
      break;
    batch *= 4;
  }
  {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    const double ms = ms_between(t0, Clock::now());
    batch = std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(batch) * 10.0 /
                               std::max(ms, 1e-3)));
  }
  std::vector<double> per_call;
  double total = 0;
  while (total < budget_ms || per_call.size() < 5) {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < batch; ++i) fn();
    const double ms = ms_between(t0, Clock::now());
    total += ms;
    per_call.push_back(ms * 1e3 / static_cast<double>(batch));
  }
  return median_of(per_call);
}

struct Ladder {
  double mul_ns = 0, sqr_ns = 0, inv_us = 0, sqrt_us = 0;
  double hash_us = 0, decompress_us = 0, msm_us_per_point = 0;
  double miller_us_per_term = 0, final_exp_us = 0, g2_prepare_us = 0;
  double verify_ms = 0, combine_ms = 0, make_verifier_ms = 0;
  double share_sign_us = 0, keygen_ms = 0;
};

constexpr size_t kLadderN = 7, kLadderT = 3;

Ladder run_ladder(const Inputs& in, const threshold::Scheme& plugin,
                  service::ThreadPool& pool) {
  const threshold::RoScheme scheme(
      threshold::SystemParams::derive(rpc::ServerConfig{}.params_label));
  Rng rng("perfbench/" + in.shape.name + "/" + std::to_string(in.seed) +
          "/ladder");
  Ladder L;

  // The workload's own messages and group elements.
  std::vector<Bytes> msgs;
  std::vector<Bytes> g1_bytes;  // compressed G1 points from its signatures
  if (in.shape.kind == Kind::kCombine) {
    for (const auto& it : in.combine_items) {
      msgs.push_back(it.msg);
      for (const auto& p : it.partials)
        g1_bytes.emplace_back(p.end() - 66, p.end() - 33);
    }
  } else {
    for (const auto& it : in.verify_items) {
      msgs.push_back(it.msg);
      g1_bytes.emplace_back(it.sig.begin(), it.sig.begin() + 33);
    }
  }
  std::vector<G1Affine> pts;
  for (size_t i = 0; pts.size() < 64; ++i)
    pts.push_back(g1_from_bytes(g1_bytes[i % g1_bytes.size()]));

  // Field: operands are coordinates of the workload's points.
  {
    Fp a = pts[0].x, b = pts[1].y;
    L.mul_ns = rung_us([&] { a = a * b; }) * 1e3;
    g_sink = g_sink + !a.is_zero();
    L.sqr_ns = rung_us([&] { a = a.squared(); }) * 1e3;
    g_sink = g_sink + !a.is_zero();
    Fp x = pts[2].x;
    L.inv_us = rung_us([&] { x = x.inverse(); });
    g_sink = g_sink + !x.is_zero();
    const Fp rhs0 = pts[3].y.squared(), rhs1 = pts[4].y.squared();
    size_t k = 0;
    L.sqrt_us = rung_us([&] {
      auto r = ((k++ & 1) ? rhs1 : rhs0).sqrt();
      g_sink = g_sink + (r ? !r->is_zero() : 0);
    });
  }

  // Curve.
  {
    size_t k = 0;
    L.hash_us = rung_us([&] {
                  auto h = scheme.hash_message(msgs[k++ % msgs.size()]);
                  g_sink = g_sink + !h[0].x.is_zero();
                }) /
                2;  // H(M) is two hash_to_g1 calls
    k = 0;
    L.decompress_us = rung_us([&] {
      auto p = g1_from_bytes(g1_bytes[k++ % g1_bytes.size()]);
      g_sink = g_sink + !p.x.is_zero();
    });
    std::vector<G1> jac;
    std::vector<Fr> coeff;
    for (const auto& p : pts) {
      jac.push_back(G1::from_affine(p));
      coeff.push_back(threshold::random_rlc_coefficient(rng));
    }
    L.msm_us_per_point = rung_us([&] {
                           auto s = msm<G1>(jac, coeff).to_affine();
                           g_sink = g_sink + !s.x.is_zero();
                         }) /
                         64;
  }

  // A (7, 3) committee: the DKG rung, then share_sign and combine on it.
  threshold::KeyMaterial km;
  {
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      Rng r = rng.fork("dkg-" + std::to_string(rep));
      const auto t0 = Clock::now();
      km = scheme.dist_keygen(kLadderN, kLadderT, r);
      ms.push_back(ms_between(t0, Clock::now()));
    }
    L.keygen_ms = median_of(ms);
  }
  std::vector<threshold::PartialSignature> parts;
  for (uint32_t i = 1; i <= kLadderT + 1; ++i)
    parts.push_back(scheme.share_sign(km.shares[i - 1], msgs[0]));
  {
    size_t k = 0;
    L.share_sign_us = rung_us([&] {
      auto p = scheme.share_sign(km.shares[0], msgs[k++ % msgs.size()]);
      g_sink = g_sink + !p.z.x.is_zero();
    });
  }

  // Pairing: the verify equation's four prepared terms on the workload's key.
  const Bytes pk_bytes =
      in.shape.kind == Kind::kCombine ? in.committees[0].pk : in.pks[0];
  const auto pk = threshold::PublicKey::deserialize(pk_bytes);
  {
    const auto& params = scheme.params();
    std::array<G2Prepared, 4> prep = {G2Prepared(params.g_z),
                                      G2Prepared(params.g_r),
                                      G2Prepared(pk.g[0]), G2Prepared(pk.g[1])};
    auto h = scheme.hash_message(msgs[0]);
    std::array<PreparedTerm, 4> terms = {PreparedTerm{pts[0], &prep[0]},
                                         PreparedTerm{pts[1], &prep[1]},
                                         PreparedTerm{h[0], &prep[2]},
                                         PreparedTerm{h[1], &prep[3]}};
    Fp12 f;
    L.miller_us_per_term = rung_us([&] { f = miller_loop(terms); }) / 4;
    L.final_exp_us = rung_us([&] {
      auto g = final_exponentiation(f);
      g_sink = g_sink + g.is_one();
    });
    L.g2_prepare_us = rung_us([&] {
      G2Prepared p(pk.g[0]);
      g_sink = g_sink + p.coeffs().size();
    });
  }

  // Threshold: the erased verifier / combiner the services cache.
  {
    L.make_verifier_ms = rung_us([&] {
                           auto v = plugin.make_verifier(pk_bytes);
                           g_sink = g_sink + v->cache_bytes();
                         }) /
                         1e3;
    auto v = plugin.make_verifier(pk_bytes);
    size_t k = 0;
    std::vector<std::pair<Bytes, threshold::SigHandle>> sigs;
    if (in.shape.kind == Kind::kCombine) {
      for (size_t j = 0; j < 8 && j < in.combine_items.size(); ++j)
        sigs.emplace_back(in.combine_items[j].msg,
                          plugin.parse_signature(in.combine_items[j].expected));
    } else {
      for (const auto& it : in.verify_items)
        if (it.expect && sigs.size() < 8)
          sigs.emplace_back(it.msg, plugin.parse_signature(it.sig));
    }
    L.verify_ms = rung_us([&] {
                    const auto& [m, s] = sigs[k++ % sigs.size()];
                    g_sink = g_sink + v->verify(m, s);
                  }) /
                  1e3;
    threshold::Committee c;
    c.pk = km.pk.serialize();
    c.n = kLadderN;
    c.t = kLadderT;
    for (const auto& vk : km.vks) c.vks.push_back(vk.serialize());
    auto comb = plugin.make_combiner(c);
    std::vector<threshold::PartialHandle> handles;
    for (const auto& p : parts)
      handles.push_back(plugin.parse_partial(p.serialize()));
    const auto evaluate = service::make_fold_evaluator(pool);
    L.combine_ms = rung_us([&] {
                     Bytes s = comb->combine(msgs[0], handles, rng, evaluate,
                                             nullptr);
                     g_sink = g_sink + s.size();
                   }) /
                   1e3;
  }
  return L;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

}  // namespace

Metrics run_traced(const Inputs& in, double seconds,
                   const PhaseResult& untraced, const PhaseResult& traced,
                   const std::string& span_out) {
  const threshold::SystemParams params =
      threshold::SystemParams::derive(rpc::ServerConfig{}.params_label);
  threshold::SchemeRegistry registry(params);
  const threshold::Scheme& plugin = registry.at(threshold::SchemeId::kRo);
  const bool combine = in.shape.kind == Kind::kCombine;
  const size_t parts_per_req =
      combine ? in.committees[0].t + 1 : 1;  // parse calls per request

  // ---- Replay into the services, built the way the daemon builds them. ----
  SpanLog log;
  HandleIds ids;
  std::unordered_map<std::string, size_t> key_index;
  for (size_t i = 0; i < in.keys.size(); ++i) key_index[in.keys[i]] = i;

  std::mutex prep_m;
  std::vector<std::pair<Clock::time_point, size_t>> prepares;
  auto note_prepare = [&](size_t key, Clock::time_point t0) {
    const auto t1 = Clock::now();
    log.add_shared({{"prepare", t0, t1, "service", 0}, {}, key});
    std::lock_guard<std::mutex> l(prep_m);
    prepares.emplace_back(t0, key);
  };

  // Declared after everything its tasks touch, so it drains first.
  service::ThreadPool pool;
  const rpc::ServerConfig defaults;
  const size_t budget = in.shape.cache_bytes ? in.shape.cache_bytes
                                             : defaults.cache_bytes;
  service::KeyCacheManager<PreparedVerifier> vcache(
      {.byte_budget = budget, .shards = defaults.cache_shards});
  service::KeyCacheManager<PreparedCombiner> ccache(
      {.byte_budget = budget, .shards = defaults.cache_shards});
  service::MultiTenantVerificationService vsvc(
      vcache,
      [&](const std::string& key) {
        const size_t k = key_index.at(key);
        const auto t0 = Clock::now();
        auto v = plugin.make_verifier(in.pks[k]);
        note_prepare(k, t0);
        return std::make_shared<const TracingVerifier>(std::move(v), log, ids);
      },
      defaults.batch, pool, "perfbench-replay");
  service::MultiTenantCombineService csvc(
      ccache,
      [&](const std::string& key) {
        const size_t k = key_index.at(key);
        const auto t0 = Clock::now();
        auto c = plugin.make_combiner(in.committees[k]);
        note_prepare(k, t0);
        return std::make_shared<const TracingCombiner>(std::move(c), log, ids);
      },
      pool, "perfbench-replay-combine");

  Issuer issue = [&](size_t, size_t item, uint64_t id,
                     std::function<void(Outcome, std::string)> done) {
    // Decode on the pool, as the daemon's decode offload does.
    pool.submit([&, item, id, done = std::move(done)]() mutable {
      try {
        const auto t0 = Clock::now();
        if (combine) {
          const auto& it = in.combine_items[item];
          std::vector<threshold::PartialHandle> parts;
          for (const auto& p : it.partials)
            parts.push_back(plugin.parse_partial(p));
          log.add({"parse", t0, Clock::now(), "request", id});
          const void* h = parts[0].obj.get();
          ids.put(h, id);
          const auto ts = Clock::now();
          csvc.submit(
              in.keys[it.committee], threshold::SchemeId::kRo, it.msg,
              std::move(parts),
              [&, id, h, ts, item, done = std::move(done)](
                  service::CombineOutcome* out, std::exception_ptr err) {
                log.add({"service", ts, Clock::now(), "request", id});
                ids.drop(h);
                if (err || !out) return done(Outcome::kFailed, "combine error");
                if (out->sig != in.combine_items[item].expected)
                  return done(Outcome::kWrong,
                              "replayed combine " + std::to_string(id) +
                                  " returned other signature bytes");
                done(Outcome::kOk, {});
              });
        } else {
          const auto& it = in.verify_items[item];
          threshold::SigHandle sig = plugin.parse_signature(it.sig);
          log.add({"parse", t0, Clock::now(), "request", id});
          const void* h = sig.obj.get();
          ids.put(h, id);
          const auto ts = Clock::now();
          vsvc.submit(in.keys[it.tenant], it.msg, std::move(sig),
                      [&, id, h, ts, expect = it.expect,
                       done = std::move(done)](bool ok,
                                               std::exception_ptr err) {
                        log.add({"service", ts, Clock::now(), "request", id});
                        ids.drop(h);
                        if (err) return done(Outcome::kFailed, "verify error");
                        if (ok != expect)
                          return done(Outcome::kWrong,
                                      "replayed verify " + std::to_string(id) +
                                          " answered " +
                                          (ok ? "accept" : "reject"));
                        done(Outcome::kOk, {});
                      });
        }
      } catch (const std::exception& e) {
        done(Outcome::kFailed, e.what());
      }
    });
  };

  std::vector<RequestStream> streams = make_streams(in);
  LoopResult loop = run_closed_loop(in, streams, in.shape.warmup, seconds,
                                    true, issue, [](bool) {});
  vsvc.drain();
  if (!loop.wrong.empty()) throw std::runtime_error(loop.wrong);
  const auto redundant = vcache.stats().redundant_prepares +
                         ccache.stats().redundant_prepares;

  // ---- Per-request attribution inside the window. ----
  std::unordered_map<uint64_t, size_t> item_of;
  std::unordered_map<uint64_t, const RequestRecord*> rec_of;
  for (const auto& r : loop.records)
    if (r.phase == Phase::kMeasured) {
      item_of[r.id] = r.item;
      rec_of[r.id] = &r;
    }
  const double reqs = static_cast<double>(item_of.size());
  const std::vector<Span> spans = log.spans();
  const std::vector<SharedSpan> shared = log.shared();

  std::unordered_map<uint64_t, std::vector<Span>> children;
  std::unordered_map<uint64_t, Clock::time_point> first_fold;
  double fold_ms = 0, folds = 0, fold_members = 0, verifies = 0,
         combines = 0;
  std::vector<const SharedSpan*> prepare_spans;
  for (const auto& s : shared) {
    if (s.span.name == "prepare") {
      prepare_spans.push_back(&s);
      continue;
    }
    size_t in_window = 0;
    for (uint64_t m : s.members)
      if (item_of.count(m)) {
        ++in_window;
        children[m].push_back(s.span);
        auto it = first_fold.find(m);
        if (it == first_fold.end() || s.span.start < it->second)
          first_fold[m] = s.span.start;
      }
    if (!in_window) continue;
    const double share =
        static_cast<double>(in_window) / static_cast<double>(s.members.size());
    fold_ms += s.span.ms() * share;
    if (s.span.name == "fold") {
      folds += share;
      fold_members += static_cast<double>(in_window);
    } else if (s.span.name == "verify") {
      verifies += share;
    } else {
      combines += share;
    }
  }
  double prepares_in_window = 0;
  for (const auto& [t0, key] : prepares)
    if (loop.window.contains(t0)) ++prepares_in_window;

  double parse_ms = 0, parses = 0;
  std::vector<double> wait_ms;
  double service_self_ms = 0;
  for (const auto& s : spans) {
    if (!item_of.count(s.request)) continue;
    if (s.name == "parse") {
      parse_ms += s.ms();
      parses += static_cast<double>(parts_per_req);
    } else if (s.name == "service") {
      auto it = first_fold.find(s.request);
      if (it != first_fold.end())
        wait_ms.push_back(ms_between(s.start, it->second));
      std::vector<Span> kids = children[s.request];
      const size_t item = item_of[s.request];
      const size_t key = combine ? in.combine_items[item].committee
                                 : in.verify_items[item].tenant;
      for (const auto* p : prepare_spans)
        if (p->key == key && p->span.end > s.start && p->span.start < s.end)
          kids.push_back(p->span);
      service_self_ms += self_ms(s, kids);
    }
  }
  std::sort(wait_ms.begin(), wait_ms.end());

  // ---- Rungs and books. ----
  const Ladder L = run_ladder(in, plugin, pool);
  const double t1 = combine ? static_cast<double>(in.committees[0].t + 1) : 0;
  const double n = combine ? static_cast<double>(in.committees[0].n) : 0;
  double hashes, decompressions, msm_points, miller_terms, final_exps,
      g2_prepares;
  if (combine) {
    // Per combine: one H(M); 2(t+1) partial decompressions; the RLC fold's
    // two (t+1)-point MSMs and 2(t+1) scalings of H, then two Lagrange MSMs
    // with full-width scalars (counted as two points each); a product of
    // 2 + 2(t+1) prepared terms with one final exponentiation.
    hashes = 2 * combines;
    decompressions = 2 * t1 * reqs;
    msm_points = (2 * t1 + 2 * t1 + 4 * t1) * combines;
    miller_terms = (2 + 2 * t1) * combines;
    final_exps = combines;
    g2_prepares = (2 + 2 * n) * prepares_in_window;
  } else {
    // Per fold member: H(M) and four MSM points; per fold or fallback
    // verify: four prepared terms and one final exponentiation; per
    // fallback verify another H(M); per prepare four G2 line tables.
    hashes = 2 * (fold_members + verifies);
    decompressions = 2 * reqs;
    msm_points = 4 * fold_members;
    miller_terms = 4 * (folds + verifies);
    final_exps = folds + verifies;
    g2_prepares = 4 * prepares_in_window;
  }
  const double curve_ms = (hashes * L.hash_us +
                           decompressions * L.decompress_us +
                           msm_points * L.msm_us_per_point) /
                          1e3 / reqs;
  const double pairing_ms = (miller_terms * L.miller_us_per_term +
                             final_exps * L.final_exp_us +
                             g2_prepares * L.g2_prepare_us) /
                            1e3 / reqs;
  const double predicted = curve_ms + pairing_ms;

  Metrics m;
  m["field.mul_ns"] = {L.mul_ns, "ns"};
  m["field.sqr_ns"] = {L.sqr_ns, "ns"};
  m["field.inv_us"] = {L.inv_us, "us"};
  m["field.sqrt_us"] = {L.sqrt_us, "us"};
  m["curve.hash_to_g1_us"] = {L.hash_us, "us"};
  m["curve.g1_decompress_us"] = {L.decompress_us, "us"};
  m["curve.msm64_us_per_point"] = {L.msm_us_per_point, "us"};
  m["curve.ms_per_req"] = {curve_ms, "ms"};
  m["pairing.miller_loop_us"] = {L.miller_us_per_term, "us"};
  m["pairing.final_exp_us"] = {L.final_exp_us, "us"};
  m["pairing.g2_prepare_us"] = {L.g2_prepare_us, "us"};
  m["pairing.ms_per_req"] = {pairing_ms, "ms"};
  m["threshold.fold_ms_per_req"] = {fold_ms / reqs, "ms"};
  m["threshold.verify_ms"] = {L.verify_ms, "ms"};
  m["threshold.combine_ms"] = {L.combine_ms, "ms"};
  m["threshold.make_verifier_ms"] = {L.make_verifier_ms, "ms"};
  m["threshold.parse_us"] = {ratio(parse_ms * 1e3, parses), "us"};
  m["threshold.share_sign_us"] = {L.share_sign_us, "us"};
  m["dkg.keygen_ms"] = {L.keygen_ms, "ms"};
  m["service.wait_ms.p50"] = {percentile(wait_ms, 0.50).value, "ms"};
  m["service.wait_ms.p99"] = {percentile(wait_ms, 0.99).value, "ms"};
  m["service.fold_size"] = {untraced.fold_size, "count"};
  m["service.fallback_ratio"] = {untraced.fallback_ratio, "ratio"};
  m["service.cache_hit_ratio"] = {untraced.cache_hit_ratio, "ratio"};
  m["service.prepares_per_req"] = {prepares_in_window / reqs, "count"};
  m["service.redundant_prepares"] = {static_cast<double>(redundant), "count"};
  m["service.self_ms_per_req"] = {service_self_ms / reqs, "ms"};
  const double replay_p50 =
      percentile(loop.tally->latency.snapshot(), 0.50).value;
  m["rpc.self_ms"] = {traced.metric("p50_ms") - replay_p50, "ms"};
  m["rpc.frames_per_req"] = {untraced.frames_per_req, "count"};
  m["rpc.busy"] = {untraced.busy, "count"};
  m["rpc.shed"] = {untraced.shed, "count"};
  m["rpc.protocol_errors"] = {untraced.protocol_errors, "count"};
  m["rpc.client_retries"] = {untraced.client_retries, "count"};
  m["ladder.predicted_cpu_ms_per_req"] = {predicted, "ms"};
  const double untraced_cpu = untraced.metric("cpu_ms_per_req");
  m["ladder.residual_ms_per_req"] = {untraced_cpu - predicted, "ms"};
  // Both phases at the nominal host speed, so a change of host speed
  // between them does not read as tracing overhead.
  m["trace.overhead_ratio"] = {
      ratio(traced.metrics.at("cpu_ms_per_req").value,
            untraced.metrics.at("cpu_ms_per_req").value),
      "ratio"};

  // ---- Spans out: client (rpc boundary) spans, then the replay's. ----
  if (!span_out.empty()) {
    if (FILE* f = std::fopen(span_out.c_str(), "w")) {
      const auto origin = loop.window.start;
      auto us = [&](Clock::time_point tp) {
        return ms_between(origin, tp) * 1e3;
      };
      std::fprintf(f, "name\tstart_us\tend_us\tparent\trequests\n");
      // Client spans of the daemon phase, on that phase's own clock origin.
      for (const auto& r : traced.window_records) {
        const auto o = traced.window_records.front().issued;
        std::fprintf(f, "rpc\t%.3f\t%.3f\t\t%llu\n",
                     ms_between(o, r.issued) * 1e3, ms_between(o, r.done) * 1e3,
                     static_cast<unsigned long long>(r.id));
      }
      for (const auto& [id, rec] : rec_of)
        std::fprintf(f, "request\t%.3f\t%.3f\t\t%llu\n", us(rec->issued),
                     us(rec->done), static_cast<unsigned long long>(id));
      for (const auto& s : spans)
        std::fprintf(f, "%.*s\t%.3f\t%.3f\t%.*s\t%llu\n",
                     static_cast<int>(s.name.size()), s.name.data(),
                     us(s.start), us(s.end), static_cast<int>(s.parent.size()),
                     s.parent.data(),
                     static_cast<unsigned long long>(s.request));
      for (const auto& s : shared) {
        std::fprintf(f, "%.*s\t%.3f\t%.3f\t%.*s\t",
                     static_cast<int>(s.span.name.size()), s.span.name.data(),
                     us(s.span.start), us(s.span.end),
                     static_cast<int>(s.span.parent.size()),
                     s.span.parent.data());
        for (size_t i = 0; i < s.members.size(); ++i)
          std::fprintf(f, "%s%llu", i ? "," : "",
                       static_cast<unsigned long long>(s.members[i]));
        std::fprintf(f, "\n");
      }
      std::fclose(f);
    }
  }

  // The separation each workload was chosen for, checked as measured. A
  // "no" is reported, not failed: a later change may legitimately move a
  // workload across these lines, and then the workload needs re-sizing.
  auto yes = [](bool b) { return b ? "yes" : "no"; };
  if (in.shape.kind == Kind::kVerifyHot)
    std::printf("separation: curve %.4f > pairing %.4f ms/req: %s; fold size "
                "%.2f > 50: %s; cache hit ratio %.3f == 1: %s\n",
                curve_ms, pairing_ms, yes(curve_ms > pairing_ms),
                untraced.fold_size, yes(untraced.fold_size > 50),
                untraced.cache_hit_ratio,
                yes(untraced.cache_hit_ratio == 1.0));
  else if (in.shape.kind == Kind::kVerifyTenants)
    std::printf("separation: pairing %.4f > curve %.4f ms/req: %s; fold size "
                "%.2f <= 2: %s; cache hit ratio %.3f < 0.9: %s\n",
                pairing_ms, curve_ms, yes(pairing_ms > curve_ms),
                untraced.fold_size, yes(untraced.fold_size <= 2),
                untraced.cache_hit_ratio,
                yes(untraced.cache_hit_ratio < 0.9));
  else
    std::printf("separation: pairing %.4f > curve %.4f ms/req: %s\n",
                pairing_ms, curve_ms, yes(pairing_ms > curve_ms));
  return m;
}

}  // namespace perfbench
