#include "dkg/pedersen_dkg.hpp"

#include <stdexcept>

#include "common/rng.hpp"
#include "common/serde.hpp"

namespace bnr::dkg {

namespace {

void write_fr(ByteWriter& w, const Fr& v) { w.raw(v.to_bytes_be()); }
Fr read_fr(ByteReader& r) { return Fr::from_bytes_be(r.raw(32)); }

}  // namespace

// ---------------------------------------------------------------------------
// Config / VssRow

G2 VssRow::commit_jacobian(std::span<const Fr> coeffs) const {
  G2 acc;
  for (const auto& [idx, gen] : terms)
    acc = acc + G2::from_affine(gen).mul(coeffs[idx]);
  return acc;
}

G2Affine VssRow::commit(std::span<const Fr> coeffs) const {
  return commit_jacobian(coeffs).to_affine();
}

void Config::validate() const {
  if (n < 2 * t + 1)
    throw std::invalid_argument("dkg::Config: requires n >= 2t+1");
  if (m == 0 || rows.empty())
    throw std::invalid_argument("dkg::Config: empty sharing spec");
  for (const auto& row : rows)
    for (const auto& [idx, gen] : row.terms) {
      if (idx >= m) throw std::invalid_argument("dkg::Config: row index >= m");
      if (gen.infinity)
        throw std::invalid_argument("dkg::Config: identity generator");
    }
  if (static_cast<bool>(extra_provider) != static_cast<bool>(extra_validator))
    throw std::invalid_argument(
        "dkg::Config: extra_provider and extra_validator must come together");
}

// ---------------------------------------------------------------------------
// Message serialization

Bytes Round1Broadcast::serialize() const {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(commitments.size()));
  for (const auto& row : commitments) {
    w.u32(static_cast<uint32_t>(row.size()));
    for (const auto& c : row) g2_serialize(c, w);
  }
  w.blob(extra);
  return w.take();
}

Round1Broadcast Round1Broadcast::deserialize(std::span<const uint8_t> data) {
  ByteReader r(data);
  Round1Broadcast out;
  uint32_t rows = r.count(4);  // each row carries at least its u32 length
  out.commitments.resize(rows);
  for (auto& row : out.commitments) {
    uint32_t len = r.count(kG2CompressedSize);
    row.reserve(len);
    for (uint32_t i = 0; i < len; ++i) row.push_back(g2_deserialize(r));
  }
  out.extra = r.blob();
  if (!r.empty()) throw std::invalid_argument("Round1Broadcast: trailing data");
  return out;
}

Bytes Round1Share::serialize() const {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(values.size()));
  for (const auto& v : values) write_fr(w, v);
  return w.take();
}

Round1Share Round1Share::deserialize(std::span<const uint8_t> data) {
  ByteReader r(data);
  Round1Share out;
  uint32_t len = r.count(32);  // one Fr each
  out.values.reserve(len);
  for (uint32_t i = 0; i < len; ++i) out.values.push_back(read_fr(r));
  if (!r.empty()) throw std::invalid_argument("Round1Share: trailing data");
  return out;
}

Bytes Round2Complaints::serialize() const {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(accused.size()));
  for (uint32_t a : accused) w.u32(a);
  return w.take();
}

Round2Complaints Round2Complaints::deserialize(std::span<const uint8_t> data) {
  ByteReader r(data);
  Round2Complaints out;
  uint32_t len = r.count(4);  // one u32 each
  out.accused.reserve(len);
  for (uint32_t i = 0; i < len; ++i) out.accused.push_back(r.u32());
  if (!r.empty()) throw std::invalid_argument("Round2Complaints: trailing");
  return out;
}

Bytes Round3Responses::serialize() const {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(reveals.size()));
  for (const auto& [complainer, share] : reveals) {
    w.u32(complainer);
    w.blob(share.serialize());
  }
  return w.take();
}

Round3Responses Round3Responses::deserialize(std::span<const uint8_t> data) {
  ByteReader r(data);
  Round3Responses out;
  uint32_t len = r.count(8);  // u32 complainer + u32 blob length each
  for (uint32_t i = 0; i < len; ++i) {
    uint32_t complainer = r.u32();
    Bytes blob = r.blob();
    out.reveals.emplace_back(complainer, Round1Share::deserialize(blob));
  }
  if (!r.empty()) throw std::invalid_argument("Round3Responses: trailing");
  return out;
}

// ---------------------------------------------------------------------------
// Player

Player::Player(const Config& cfg, uint32_t index, Rng rng, Behavior behavior)
    : cfg_(&cfg), index_(index), rng_(std::move(rng)),
      behavior_(std::move(behavior)) {
  cfg.validate();
  polys_.reserve(cfg.m);
  for (size_t k = 0; k < cfg.m; ++k) {
    polys_.push_back(cfg.share_zero
                         ? Polynomial::random_with_constant(rng_, cfg.t,
                                                            Fr::zero())
                         : Polynomial::random(rng_, cfg.t));
  }
}

std::optional<Round1Broadcast> Player::round1_broadcast() {
  if (behavior_.crash) return std::nullopt;
  Round1Broadcast out;
  out.commitments.resize(cfg_->rows.size());
  // Compute every commitment level in Jacobian form, then normalize the
  // whole rows*(t+1) block with a single batched inversion.
  std::vector<G2> raw;
  raw.reserve(cfg_->rows.size() * (cfg_->t + 1));
  for (size_t row = 0; row < cfg_->rows.size(); ++row) {
    for (size_t l = 0; l <= cfg_->t; ++l) {
      std::vector<Fr> coeffs(cfg_->m);
      for (size_t k = 0; k < cfg_->m; ++k)
        coeffs[k] = polys_[k].coefficients()[l];
      raw.push_back(cfg_->rows[row].commit_jacobian(coeffs));
    }
  }
  auto normalized = G2::batch_to_affine(raw);
  for (size_t row = 0; row < cfg_->rows.size(); ++row)
    out.commitments[row].assign(
        normalized.begin() + row * (cfg_->t + 1),
        normalized.begin() + (row + 1) * (cfg_->t + 1));
  if (behavior_.bad_commitments) {
    // Garbage: random multiples of the generator.
    for (auto& row : out.commitments)
      for (auto& c : row) c = G2::generator().mul(Fr::random(rng_)).to_affine();
  }
  if (cfg_->extra_provider) {
    std::vector<Fr> constants(cfg_->m);
    for (size_t k = 0; k < cfg_->m; ++k) constants[k] = polys_[k].constant_term();
    out.extra = cfg_->extra_provider(constants);
    if (behavior_.bad_extra && !out.extra.empty()) out.extra[0] ^= 0x01;
  }
  return out;
}

std::optional<Round1Share> Player::round1_share_for(uint32_t j) {
  if (behavior_.crash) return std::nullopt;
  Round1Share s;
  s.values.reserve(cfg_->m);
  for (size_t k = 0; k < cfg_->m; ++k)
    s.values.push_back(polys_[k].evaluate_at_index(j));
  for (uint32_t victim : behavior_.send_bad_share_to) {
    if (victim == j) {
      for (auto& v : s.values) v = v + Fr::one();
      break;
    }
  }
  return s;
}

bool Player::share_valid(uint32_t from, const Round1Share& share) const {
  auto it = broadcasts_.find(from);
  if (it == broadcasts_.end()) return false;
  if (share.values.size() != cfg_->m) return false;
  const auto& comms = it->second.commitments;
  for (size_t row = 0; row < cfg_->rows.size(); ++row) {
    G2 lhs;
    for (const auto& [idx, gen] : cfg_->rows[row].terms)
      lhs = lhs + G2::from_affine(gen).mul(share.values[idx]);
    G2 rhs = eval_commitments(comms[row], index_);
    if (!(lhs == rhs)) return false;
  }
  return true;
}

void Player::receive_round1(
    const std::map<uint32_t, Round1Broadcast>& broadcasts,
    const std::map<uint32_t, Round1Share>& shares) {
  // Classify broadcast-level (publicly visible) faults as immediate
  // disqualifications; share-level faults become complaints.
  for (uint32_t j = 1; j <= cfg_->n; ++j) {
    if (j == index_) continue;
    auto bit = broadcasts.find(j);
    if (bit == broadcasts.end()) {
      disqualified_.insert(j);  // no dealing at all
      continue;
    }
    const Round1Broadcast& b = bit->second;
    bool well_formed = b.commitments.size() == cfg_->rows.size();
    for (const auto& row : b.commitments)
      well_formed = well_formed && row.size() == cfg_->t + 1;
    if (well_formed && cfg_->share_zero) {
      for (const auto& row : b.commitments)
        well_formed = well_formed && row[0].infinity;
    }
    if (well_formed && cfg_->extra_validator) {
      std::vector<G2Affine> row0;
      for (const auto& row : b.commitments) row0.push_back(row[0]);
      well_formed = well_formed && cfg_->extra_validator(row0, b.extra);
    }
    if (!well_formed) {
      disqualified_.insert(j);
      continue;
    }
    broadcasts_.emplace(j, b);
    auto sit = shares.find(j);
    if (sit == shares.end() || !share_valid(j, sit->second)) {
      suspects_.insert(j);
    } else {
      received_.emplace(j, sit->second);
    }
  }
  // My own dealing to myself.
  Round1Share self;
  for (size_t k = 0; k < cfg_->m; ++k)
    self.values.push_back(polys_[k].evaluate_at_index(index_));
  received_.emplace(index_, std::move(self));
  // My own broadcast, as everyone saw it on the channel.
  auto mine = broadcasts.find(index_);
  if (mine != broadcasts.end()) broadcasts_.emplace(index_, mine->second);
}

Round2Complaints Player::round2_complaints() const {
  Round2Complaints out;
  for (uint32_t j : suspects_) out.accused.push_back(j);
  for (uint32_t j : behavior_.false_accusations) {
    if (j != index_ && !suspects_.contains(j)) out.accused.push_back(j);
  }
  return out;
}

std::optional<Round3Responses> Player::round3_responses(
    const std::map<uint32_t, Round2Complaints>& all_complaints) {
  if (behavior_.crash || behavior_.refuse_complaint_response)
    return std::nullopt;
  Round3Responses out;
  for (const auto& [complainer, complaints] : all_complaints) {
    for (uint32_t accused : complaints.accused) {
      if (accused != index_) continue;
      Round1Share s;
      for (size_t k = 0; k < cfg_->m; ++k)
        s.values.push_back(polys_[k].evaluate_at_index(complainer));
      if (behavior_.respond_with_bad_share)
        for (auto& v : s.values) v = v + Fr::one();
      out.reveals.emplace_back(complainer, std::move(s));
    }
  }
  return out;
}

void Player::resolve_complaints(
    const std::map<uint32_t, Round2Complaints>& all_complaints,
    const std::map<uint32_t, Round3Responses>& all_responses) {
  // Count complaints; more than t disqualifies outright.
  std::map<uint32_t, std::set<uint32_t>> complainers_of;
  for (const auto& [complainer, complaints] : all_complaints)
    for (uint32_t accused : complaints.accused)
      if (accused >= 1 && accused <= cfg_->n && accused != complainer)
        complainers_of[accused].insert(complainer);

  for (const auto& [accused, complainers] : complainers_of) {
    if (disqualified_.contains(accused)) continue;
    if (complainers.size() > cfg_->t) {
      disqualified_.insert(accused);
      continue;
    }
    // The accused must have revealed a valid share for every complainer.
    auto rit = all_responses.find(accused);
    for (uint32_t complainer : complainers) {
      if (disqualified_.contains(accused)) break;
      const Round1Share* revealed = nullptr;
      if (rit != all_responses.end()) {
        for (const auto& [c, share] : rit->second.reveals)
          if (c == complainer) revealed = &share;
      }
      if (revealed == nullptr) {
        disqualified_.insert(accused);
        break;
      }
      // Publicly verify the revealed share against the accused's
      // commitments, from the complainer's position.
      auto bit = broadcasts_.find(accused);
      if (bit == broadcasts_.end()) {
        disqualified_.insert(accused);
        break;
      }
      bool ok = revealed->values.size() == cfg_->m;
      if (ok) {
        for (size_t row = 0; row < cfg_->rows.size() && ok; ++row) {
          G2 lhs;
          for (const auto& [idx, gen] : cfg_->rows[row].terms)
            lhs = lhs + G2::from_affine(gen).mul(revealed->values[idx]);
          G2 rhs =
              eval_commitments(bit->second.commitments[row], complainer);
          ok = lhs == rhs;
        }
      }
      if (!ok) {
        disqualified_.insert(accused);
        break;
      }
      // If I was the complainer, adopt the revealed (now public) share.
      if (complainer == index_) received_[accused] = *revealed;
    }
  }
  finalized_inputs_ = true;
}

Player::Output Player::finalize() const {
  Player::Output out;
  for (uint32_t j = 1; j <= cfg_->n; ++j)
    if (!disqualified_.contains(j)) out.qualified.push_back(j);

  // Aggregate commitment polynomials over Q, then PK and all VKs.
  std::vector<std::vector<G2>> agg(cfg_->rows.size(),
                                   std::vector<G2>(cfg_->t + 1));
  for (uint32_t j : out.qualified) {
    auto bit = broadcasts_.find(j);
    if (bit == broadcasts_.end()) continue;  // cannot happen for honest view
    for (size_t row = 0; row < cfg_->rows.size(); ++row)
      for (size_t l = 0; l <= cfg_->t; ++l)
        agg[row][l] = agg[row][l] +
                      G2::from_affine(bit->second.commitments[row][l]);
  }
  std::vector<std::vector<G2Affine>> agg_aff(cfg_->rows.size());
  for (size_t row = 0; row < cfg_->rows.size(); ++row) {
    out.public_key.push_back(agg[row][0].to_affine());
    for (size_t l = 0; l <= cfg_->t; ++l)
      agg_aff[row].push_back(agg[row][l].to_affine());
  }

  out.verification_keys.assign(cfg_->n, {});
  for (uint32_t i = 1; i <= cfg_->n; ++i) {
    auto& vk = out.verification_keys[i - 1];
    if (disqualified_.contains(i)) {
      vk.assign(cfg_->rows.size(), G2Affine::identity());
      continue;
    }
    for (size_t row = 0; row < cfg_->rows.size(); ++row)
      vk.push_back(eval_commitments(agg_aff[row], i).to_affine());
  }

  // My share: sum of qualified dealers' contributions (zero if I was
  // disqualified).
  auto& sk = out.secret_share.reveal_mut();
  sk.assign(cfg_->m, Fr::zero());
  if (!disqualified_.contains(index_)) {
    for (uint32_t j : out.qualified) {
      auto sit = received_.find(j);
      if (sit == received_.end())
        throw std::logic_error("dkg: missing share from qualified dealer");
      for (size_t k = 0; k < cfg_->m; ++k) sk[k] = sk[k] + sit->second.values[k];
    }
  }
  return out;
}

InternalState Player::internal_state() const {
  InternalState st;
  st.polynomials = polys_;
  st.received = received_;
  if (finalized_inputs_) st.final_share = finalize().secret_share;
  return st;
}

// ---------------------------------------------------------------------------
// Driver

G2 eval_commitments(std::span<const G2Affine> coeffs, uint64_t x) {
  // prod_l coeffs[l]^{x^l} as one multi-scalar multiplication over the
  // power sequence (1, x, x^2, ...); Pippenger keeps the cost at
  // O(bits/c * (levels + 2^c)) group additions for large t.
  std::vector<Fr> powers;
  powers.reserve(coeffs.size());
  Fr xf = Fr::from_u64(x);
  Fr pw = Fr::one();
  for (size_t l = 0; l < coeffs.size(); ++l) {
    powers.push_back(pw);
    pw = pw * xf;
  }
  return msm<G2>(coeffs, powers);
}

RunResult run_dkg(const Config& cfg, SyncNetwork& net,
                  std::vector<Player>& players) {
  if (players.size() != cfg.n) throw std::invalid_argument("run_dkg: n");
  const uint32_t n = static_cast<uint32_t>(cfg.n);

  // ---- Round 1: commitments (broadcast) + shares (p2p).
  uint32_t r1 = net.current_round();
  for (auto& p : players) {
    auto b = p.round1_broadcast();
    if (b) net.broadcast(p.index(), b->serialize());
    for (uint32_t j = 1; j <= n; ++j) {
      if (j == p.index()) continue;
      auto s = p.round1_share_for(j);
      if (s) net.send(p.index(), j, s->serialize());
    }
  }
  net.end_round();

  for (auto& p : players) {
    std::map<uint32_t, Round1Broadcast> bmap;
    std::map<uint32_t, Round1Share> smap;
    for (const auto& env : net.inbox(p.index(), r1)) {
      try {
        if (!env.to.has_value())
          bmap.emplace(env.from, Round1Broadcast::deserialize(env.payload));
        else
          smap.emplace(env.from, Round1Share::deserialize(env.payload));
      } catch (const std::exception&) {
        // Malformed message: equivalent to not having sent it.
      }
    }
    p.receive_round1(bmap, smap);
  }

  // ---- Round 2: complaints (broadcast). Optimistically empty.
  uint32_t r2 = net.current_round();
  bool any_complaint = false;
  for (auto& p : players) {
    auto c = p.round2_complaints();
    if (!c.accused.empty() && !p.behavior().crash) {
      net.broadcast(p.index(), c.serialize());
      any_complaint = true;
    }
  }
  net.end_round();

  std::map<uint32_t, Round2Complaints> complaints;
  if (any_complaint) {
    for (const auto& env : net.broadcasts(r2)) {
      try {
        complaints.emplace(env.from,
                           Round2Complaints::deserialize(env.payload));
      } catch (const std::exception&) {
      }
    }
  }

  // ---- Round 3: responses (broadcast), only if anyone complained.
  uint32_t r3 = net.current_round();
  if (any_complaint) {
    for (auto& p : players) {
      auto resp = p.round3_responses(complaints);
      if (resp && !resp->reveals.empty())
        net.broadcast(p.index(), resp->serialize());
    }
  }
  net.end_round();

  std::map<uint32_t, Round3Responses> responses;
  if (any_complaint) {
    for (const auto& env : net.broadcasts(r3)) {
      try {
        responses.emplace(env.from, Round3Responses::deserialize(env.payload));
      } catch (const std::exception&) {
      }
    }
  }

  RunResult result;
  for (auto& p : players) {
    p.resolve_complaints(complaints, responses);
    result.outputs.push_back(p.finalize());
  }
  result.stats = net.stats();
  result.rounds = net.stats().rounds;
  result.qualified = result.outputs.front().qualified;
  return result;
}

RunResult run_dkg(const Config& cfg, Rng& seed_rng,
                  const std::map<uint32_t, Behavior>& behaviors,
                  SyncNetwork* net, std::vector<Player>* players_out) {
  std::vector<Player> players;
  players.reserve(cfg.n);
  for (uint32_t i = 1; i <= cfg.n; ++i) {
    Behavior b;
    if (auto it = behaviors.find(i); it != behaviors.end()) b = it->second;
    players.emplace_back(cfg, i, seed_rng.fork("player" + std::to_string(i)),
                         b);
  }
  SyncNetwork local_net(cfg.n);
  SyncNetwork& use_net = net ? *net : local_net;
  RunResult result = run_dkg(cfg, use_net, players);
  // Take the canonical qualified set / outputs from an honest player's view
  // (byzantine players' local views are not meaningful).
  for (uint32_t i = 1; i <= cfg.n; ++i) {
    if (!behaviors.contains(i)) {
      result.qualified = result.outputs[i - 1].qualified;
      break;
    }
  }
  if (players_out) *players_out = std::move(players);
  return result;
}

}  // namespace bnr::dkg
