// Pool-parallel drivers over the curve/pairing primitives. These live in the
// service layer (not in curve/ or pairing/) so the core stays free of any
// threading dependency and remains bit-for-bit deterministic single-threaded
// code; everything here is a pure fan-out that must agree with the serial
// paths (tests cross-check).
#pragma once

#include <span>

#include "pairing/pairing.hpp"
#include "service/thread_pool.hpp"

namespace bnr::service {

/// Multi-Miller loop fanned out across the pool. The Miller function of a
/// product is the product of the per-term Miller functions, so the terms are
/// split into one chunk per thread, each chunk runs the shared-squaring
/// prepared loop on its own, and the chunk results multiply into ONE final
/// exponentiation. Each extra chunk pays one extra Fp12 squaring chain —
/// cheap next to the line evaluations it parallelizes.
GT multi_pairing_parallel(ThreadPool& pool, std::span<const PreparedTerm> terms);

/// True iff prod_i e(P_i, Q_i) == 1, evaluated across the pool.
bool pairing_product_is_one_parallel(ThreadPool& pool,
                                     std::span<const PreparedTerm> terms);

}  // namespace bnr::service
