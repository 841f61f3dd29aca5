// Fixture: clean twin of l008_bad — the same words in comments, strings and
// longer identifiers. asm volatile("rdtsc") belongs in src/field/fp.hpp.
/* __asm__ __volatile__("" ::: "memory"); */
#include <cstdint>
#include <string>

namespace fixture {

const char* kDoc = "asm(\"nop\") and __asm__ live in the kernel file";

// Identifiers that merely contain the keyword are not asm statements.
int asm_count = 0;
std::string wasm_target = "wasm32";

uint64_t add_limbs(uint64_t a, uint64_t b) {
  return a + b;  // the compiler chooses the instructions
}

}  // namespace fixture
