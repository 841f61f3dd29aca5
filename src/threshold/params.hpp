// Common public parameters for the threshold schemes (§3.1): asymmetric
// bilinear groups with generators g^_z, g^_r in G^ derived from a random
// oracle — no party knows log_{g^z}(g^r) and no setup round is needed —
// plus the message hash H : {0,1}* -> G x G.
#pragma once

#include <memory>
#include <string>

#include "curve/hash_to_curve.hpp"
#include "pairing/pairing.hpp"

namespace bnr::threshold {

/// Prepared Miller-loop lines of the public G2 generators that every key's
/// verification equation pairs against: g^_z and g^_r (RO, Agg, DLIN),
/// h^_z and h^_u (DLIN) and the G2 generator (Boldyreva BLS). Prepared once
/// per derive() and shared by pointer with every scheme, verifier and
/// combiner built from those params, so a cached key owns only the tables
/// of its own key elements, and a shared fold (threshold/fold.hpp) sees one
/// table identity per generator across all keys.
struct GeneratorTables {
  G2Prepared g_z, g_r, h_z, h_u;
  G2Prepared g2;  // G2Curve::generator_affine()
};

struct SystemParams {
  std::string label;  // domain separation for all oracles
  G2Affine g_z, g_r;
  // DLIN variant (App. F) additionally uses (h^_z, h^_u).
  G2Affine h_z, h_u;
  // App. G aggregation uses two extra G1 generators (g, h).
  G1Affine g1_g, g1_h;
  // Prepared lines of the G2 generators above; copies share them.
  std::shared_ptr<const GeneratorTables> tables;

  /// Derives all generators from hash oracles keyed by `label` and
  /// prepares their tables.
  static SystemParams derive(std::string_view label);

  std::string hash_dst(std::string_view role) const {
    return label + "/" + std::string(role);
  }
};

/// Draws a batch-verification RLC coefficient as two GLV halves:
/// k1 + k2 * lambda (mod r), with k1 and k2 uniform 64-bit values, not both
/// zero, and lambda = G1Curve::glv_lambda(). No nonzero (a, b) with
/// |a|, |b| < 2^64 has a + b * lambda = 0 (mod r): its coordinates in the
/// reduced GLV basis would be below (2^64 - 1) * 2^127 / r < 1 in
/// magnitude. So the draw is uniform over 2^128 - 1 distinct nonzero
/// residues, and a product holding an invalid member passes with
/// probability at most 1/(2^128 - 1). glv_split gives back exactly
/// (k1, k2), so msm runs a coefficient as two 64-bit lanes.
Fr random_rlc_coefficient(Rng& rng);

}  // namespace bnr::threshold
