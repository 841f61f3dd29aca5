// Random-oracle hashing onto G1 and G2 (try-and-increment + cofactor
// clearing), and derivation of nothing-up-my-sleeve G2 generators.
//
// The schemes need H : {0,1}* -> G x G (two independent G1 points) and public
// parameters g^_z, g^_r in G2 "derived from a random oracle [so] no party
// should know log_{g^z}(g^r)" (§3.1).
#pragma once

#include <string_view>

#include "curve/g1.hpp"
#include "curve/g2.hpp"

namespace bnr {

/// Hashes (dst, msg) to a G1 point: the first counter whose x^3 + b is a
/// square (Jacobi symbol first, then one sqrt). Variable time; the message
/// is public.
G1Affine hash_to_g1(std::string_view dst, std::span<const uint8_t> msg);
G1Affine hash_to_g1(std::string_view dst, std::string_view msg);

/// Hashes (dst, msg) to a point of the r-order subgroup of E'(Fp2).
G2Affine hash_to_g2(std::string_view dst, std::span<const uint8_t> msg);
G2Affine hash_to_g2(std::string_view dst, std::string_view msg);

/// H(M) in the paper: a vector of `n` independent G1 points.
std::vector<G1Affine> hash_to_g1_vector(std::string_view dst,
                                        std::span<const uint8_t> msg,
                                        size_t n);

}  // namespace bnr
