// Shared keygen/sign fixture boilerplate for the threshold test suites.
// Every suite that exercises the RO-model or DLIN scheme repeats the same
// setup — derive params from a label, run Dist-Keygen, sign partials with a
// subset of players, tamper a component to make a forgery. Those helpers
// live here once; suites subclass with their own domain label so key
// material never collides across suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
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

}  // namespace bnr::testfx
