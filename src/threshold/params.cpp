#include "threshold/params.hpp"

#include "common/rng.hpp"

namespace bnr::threshold {

Fr random_rlc_coefficient(Rng& rng) {
  for (;;) {
    const uint64_t k1 = rng.next_u64(), k2 = rng.next_u64();
    if ((k1 | k2) != 0)
      return Fr::from_u64(k1) + Fr::from_u64(k2) * G1Curve::glv_lambda();
  }
}

SystemParams SystemParams::derive(std::string_view label) {
  SystemParams p;
  p.label = std::string(label);
  p.g_z = hash_to_g2(p.hash_dst("gen"), "g_z");
  p.g_r = hash_to_g2(p.hash_dst("gen"), "g_r");
  p.h_z = hash_to_g2(p.hash_dst("gen"), "h_z");
  p.h_u = hash_to_g2(p.hash_dst("gen"), "h_u");
  p.g1_g = hash_to_g1(p.hash_dst("gen"), "g");
  p.g1_h = hash_to_g1(p.hash_dst("gen"), "h");
  p.tables = std::make_shared<const GeneratorTables>(GeneratorTables{
      G2Prepared(p.g_z), G2Prepared(p.g_r), G2Prepared(p.h_z),
      G2Prepared(p.h_u), G2Prepared(G2Curve::generator_affine())});
  return p;
}

}  // namespace bnr::threshold
