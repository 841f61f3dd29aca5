#include "field/fp.hpp"

#if BNR_MONT_MULX
#include <cpuid.h>
#endif

#include "common/rng.hpp"

namespace bnr {

#if BNR_MONT_MULX
namespace detail {
namespace {

/// cpuid leaf 7, subleaf 0: bmi2 (mulx) and adx (adcx, adox) in ebx.
bool cpu_has_bmi2_adx() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
}

}  // namespace

const bool mont_use_mulx = cpu_has_bmi2_adx();

}  // namespace detail
#endif

template <class Tag>
Mont<Tag> Mont<Tag>::random(Rng& rng) {
  // Rejection sampling: the modulus is 254 bits, so after masking to 254 bits
  // the acceptance probability is > 1/2.
  for (;;) {
    std::array<uint8_t, 32> buf;
    rng.fill(buf);
    U256 v = U256::from_bytes_be(buf);
    v.w[3] &= (uint64_t(1) << 62) - 1;  // clear top 2 bits
    if (v < kMod) return from_u256(v);
  }
}

template Mont<FpTag> Mont<FpTag>::random(Rng&);
template Mont<FrTag> Mont<FrTag>::random(Rng&);

}  // namespace bnr
