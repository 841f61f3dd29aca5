// Seeded inputs for the three workloads. Every key, message, signer subset,
// Zipf draw and invalid position derives from (workload, seed); the daemon
// only ever sees the generated bytes.
#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/sha256.hpp"
#include "rpc/rpc_server.hpp"
#include "service/thread_pool.hpp"

namespace perfbench {

using namespace bnr;
using threshold::PartialSignature;
using threshold::RoScheme;

Shape shape_for(const std::string& workload) {
  Shape s;
  s.name = workload;
  if (workload == "verify_hot") {
    // 4 x 64 outstanding fills the daemon's 64-wide folds.
    s = {Kind::kVerifyHot, workload, 4, 64, 4096, 0};
  } else if (workload == "verify_tenants") {
    // A 16 MiB cache holds about a quarter of 1,000 prepared verifiers.
    s = {Kind::kVerifyTenants, workload, 4, 8, 2048, size_t(16) << 20};
  } else if (workload == "combine") {
    // 2 x 4 outstanding keeps every core busy, so a combine's latency is
    // mostly its wait behind the others. One at a time took 8-9 ms, about
    // as long as the host's stalls, which then doubled p99_ms in some host
    // phases (see README, "Host noise").
    s = {Kind::kCombine, workload, 2, 4, 256, 0};
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  // One driver thread per connection, never more than there are cores.
  s.conns = std::min<size_t>(
      s.conns, std::max(1u, std::thread::hardware_concurrency()));
  return s;
}

namespace {

constexpr size_t kHotMessages = 256;
constexpr size_t kHotN = 3, kHotT = 1;
constexpr size_t kTenants = 1000;
constexpr size_t kTenantMessages = 2;
constexpr size_t kCommittees = 4;
constexpr size_t kCombineN = 7, kCombineT = 3;
constexpr size_t kCombineMessages = 32;
constexpr size_t kStreamDigestDraws = 256;
// verify_tenants: exactly one request in this many per connection carries a
// signature over the tenant's other message.
constexpr uint64_t kInvalidEvery = 64;

Rng seeded(const Inputs& in, const std::string& what) {
  return Rng("perfbench/" + in.shape.name + "/" + std::to_string(in.seed) +
             "/" + what);
}

Bytes message(Rng& rng, const std::string& tag) {
  Bytes m = to_bytes(tag + " ");
  Bytes r = rng.bytes(24);
  m.insert(m.end(), r.begin(), r.end());
  return m;
}

/// A uniformly drawn subset of `k` players out of 1..n, in draw order.
std::vector<uint32_t> signer_subset(Rng& rng, size_t n, size_t k) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 1u);
  for (size_t i = 0; i < k; ++i)
    std::swap(ids[i], ids[i + rng.uniform(n - i)]);
  ids.resize(k);
  return ids;
}

threshold::Signature sign(const RoScheme& scheme,
                          const threshold::KeyMaterial& km,
                          std::span<const uint32_t> signers,
                          std::span<const uint8_t> msg,
                          std::vector<PartialSignature>* parts_out = nullptr) {
  std::vector<PartialSignature> parts;
  for (uint32_t i : signers)
    parts.push_back(scheme.share_sign(km.shares[i - 1], msg));
  auto sig = scheme.combine_unchecked(km.t, parts);
  if (parts_out) *parts_out = std::move(parts);
  return sig;
}

threshold::Committee public_committee(const threshold::KeyMaterial& km) {
  threshold::Committee c;
  c.pk = km.pk.serialize();
  c.n = static_cast<uint32_t>(km.n);
  c.t = static_cast<uint32_t>(km.t);
  for (const auto& vk : km.vks) c.vks.push_back(vk.serialize());
  return c;
}

std::string digest_of(const Inputs& in) {
  Sha256 h;
  auto put = [&](std::span<const uint8_t> b) {
    uint64_t n = b.size();
    h.update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(&n),
                                      sizeof(n)));
    h.update(b);
  };
  h.update(in.shape.name);
  for (const auto& k : in.keys) h.update(k);
  for (const auto& pk : in.pks) put(pk);
  for (const auto& c : in.committees) {
    put(c.pk);
    for (const auto& vk : c.vks) put(vk);
  }
  for (const auto& it : in.verify_items) {
    put(it.msg);
    put(it.sig);
    h.update(it.expect ? "1" : "0");
  }
  for (const auto& it : in.combine_items) {
    put(it.msg);
    for (const auto& p : it.partials) put(p);
    put(it.expected);
  }
  for (size_t c = 0; c < in.shape.conns; ++c) {
    RequestStream s(in, c);
    for (size_t k = 0; k < kStreamDigestDraws; ++k)
      h.update(std::to_string(s.next()) + ",");
  }
  auto d = h.finalize();
  return to_hex(d);
}

}  // namespace

Inputs make_inputs(const Shape& shape, uint64_t seed, size_t threads) {
  Inputs in;
  in.shape = shape;
  in.seed = seed;
  const RoScheme scheme(
      threshold::SystemParams::derive(rpc::ServerConfig{}.params_label));
  service::ThreadPool pool(threads);
  const std::string tag = std::to_string(seed);

  switch (shape.kind) {
    case Kind::kVerifyHot: {
      Rng krng = seeded(in, "committee");
      auto km = scheme.dist_keygen(kHotN, kHotT, krng);
      in.keys = {"hot-" + tag};
      in.pks = {km.pk.serialize()};
      in.verify_items.resize(kHotMessages);
      pool.parallel_for(kHotMessages, [&](size_t j) {
        Rng r = seeded(in, "msg-" + std::to_string(j));
        auto& it = in.verify_items[j];
        it.tenant = 0;
        it.msg_index = static_cast<uint32_t>(j);
        it.msg = message(r, "hot " + std::to_string(j));
        auto signers = signer_subset(r, kHotN, kHotT + 1);
        it.sig = sign(scheme, km, signers, it.msg).serialize();
      });
      break;
    }
    case Kind::kVerifyTenants: {
      // Verify-only tenants: each key is the output of a one-player DKG, so
      // its single share signs directly. Per tenant: two valid items and one
      // carrying the second message's signature on the first message.
      in.keys.resize(kTenants);
      in.pks.resize(kTenants);
      in.verify_items.resize(kTenants * (kTenantMessages + 1));
      pool.parallel_for(kTenants, [&](size_t i) {
        Rng r = seeded(in, "tenant-" + std::to_string(i));
        auto km = scheme.dist_keygen(1, 0, r);
        in.keys[i] = "tenant-" + tag + "-" + std::to_string(i);
        in.pks[i] = km.pk.serialize();
        const uint32_t signer = 1;
        Bytes sigs[kTenantMessages];
        for (size_t m = 0; m < kTenantMessages; ++m) {
          auto& it = in.verify_items[i * 3 + m];
          it.tenant = static_cast<uint32_t>(i);
          it.msg_index = static_cast<uint32_t>(m);
          it.msg = message(r, "tenant " + std::to_string(i) + "/" +
                                  std::to_string(m));
          it.sig = sign(scheme, km, std::span(&signer, 1), it.msg).serialize();
          sigs[m] = it.sig;
        }
        auto& bad = in.verify_items[i * 3 + 2];
        bad = in.verify_items[i * 3];
        bad.sig = sigs[1];
        bad.expect = false;
      });
      double total = 0;
      for (size_t r = 0; r < kTenants; ++r) {
        total += 1.0 / static_cast<double>(r + 1);  // Zipf, s = 1.0
        in.zipf_cdf.push_back(total);
      }
      for (auto& c : in.zipf_cdf) c /= total;
      break;
    }
    case Kind::kCombine: {
      std::vector<threshold::KeyMaterial> kms(kCommittees);
      pool.parallel_for(kCommittees, [&](size_t c) {
        Rng r = seeded(in, "committee-" + std::to_string(c));
        kms[c] = scheme.dist_keygen(kCombineN, kCombineT, r);
      });
      for (size_t c = 0; c < kCommittees; ++c) {
        in.keys.push_back("committee-" + tag + "-" + std::to_string(c));
        in.committees.push_back(public_committee(kms[c]));
      }
      std::vector<threshold::RoVerifier> verifiers;
      for (const auto& km : kms) verifiers.emplace_back(scheme, km.pk);
      in.combine_items.resize(kCommittees * kCombineMessages);
      std::atomic<bool> bad_expected{false};
      pool.parallel_for(in.combine_items.size(), [&](size_t j) {
        const size_t c = j / kCombineMessages;
        Rng r = seeded(in, "combine-" + std::to_string(j));
        auto& it = in.combine_items[j];
        it.committee = static_cast<uint32_t>(c);
        it.msg_index = static_cast<uint32_t>(j % kCombineMessages);
        it.msg = message(r, "combine " + std::to_string(j));
        auto signers = signer_subset(r, kCombineN, kCombineT + 1);
        std::vector<PartialSignature> parts;
        auto sig = sign(scheme, kms[c], signers, it.msg, &parts);
        for (const auto& p : parts) it.partials.push_back(p.serialize());
        it.expected = sig.serialize();
        if (!verifiers[c].verify(it.msg, sig)) bad_expected = true;
      });
      if (bad_expected)
        throw std::runtime_error("expected combined signature fails verify");
      break;
    }
  }
  in.digest = digest_of(in);
  return in;
}

RequestStream::RequestStream(const Inputs& in, size_t conn)
    : in_(in), rng_(seeded(in, "stream-" + std::to_string(conn))) {
  invalid_offset_ = rng_.uniform(kInvalidEvery);
}

size_t RequestStream::next() {
  const uint64_t k = k_++;
  switch (in_.shape.kind) {
    case Kind::kVerifyHot:
      return rng_.uniform(in_.verify_items.size());
    case Kind::kVerifyTenants: {
      double u = static_cast<double>(rng_.next_u64() >> 11) * 0x1.0p-53;
      size_t tenant = static_cast<size_t>(
          std::lower_bound(in_.zipf_cdf.begin(), in_.zipf_cdf.end(), u) -
          in_.zipf_cdf.begin());
      tenant = std::min(tenant, in_.zipf_cdf.size() - 1);
      const bool invalid = (k + invalid_offset_) % kInvalidEvery == 0;
      return tenant * 3 + (invalid ? 2 : rng_.uniform(kTenantMessages));
    }
    case Kind::kCombine:
      return rng_.uniform(in_.combine_items.size());
  }
  return 0;
}

}  // namespace perfbench
