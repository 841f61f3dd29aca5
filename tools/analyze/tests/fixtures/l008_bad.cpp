// Fixture: BNR-L008 violation — inline asm outside the field kernel file.
#include <cstdint>

namespace fixture {

uint64_t cycle_count() {
  uint32_t lo = 0, hi = 0;
  asm volatile("rdtsc" : "=a"(lo), "=d"(hi));  // EXPECT: BNR-L008
  return (uint64_t(hi) << 32) | lo;
}

void compiler_barrier() {
  __asm__ __volatile__("" ::: "memory");  // EXPECT: BNR-L008
}

uint64_t add_limbs(uint64_t a, uint64_t b) {
  __asm("addq %1, %0"  // EXPECT: BNR-L008
        : "+r"(a)
        : "r"(b));
  return a;
}

}  // namespace fixture
