// Optimistic Combine: the one combine routine behind every combiner in the
// repo. Each scheme (RO, DLIN, aggregate and Boldyreva BLS) calls it from
// one combiner class, which backs both the cached per-committee combiner
// and the scheme's stateless combine.
//
// Combine (§3) is Lagrange interpolation in the exponent, and all COMBINE
// promises is a signature valid under the committee key. One check of the
// interpolated signature establishes exactly that, so Share-Verify runs
// only when that check fails:
//
//   1. drop partials whose index is outside [1, n];
//   2. interpolate the first t+1 partials with distinct indices (the head);
//   3. return that signature if it passes the scheme's verification
//      equation under the committee key;
//   4. otherwise scan in input order: Share-Verify every partial whose
//      index has no accepted partial yet, append the index of each one that
//      fails to `cheaters`, and interpolate the first t+1 that pass. Throw
//      std::runtime_error if fewer than t+1 pass.
//
// Every scheme checks step 3 with its Share-Verify equation: the committee
// key is the verification key at index 0 (the sharing polynomials' constant
// terms), and the interpolated signature is the partial at index 0.
//
// What callers can rely on:
//  * The output equals the head's interpolation whenever the head is valid,
//    so it is byte-identical to checking every partial first.
//  * `cheaters` is filled only by the scan, i.e. only when the interpolated
//    signature fails its check. A failed check proves that some partial in
//    the head is invalid, so the scan is never wasted.
//  * Invalid partials whose errors cancel under interpolation yield that
//    valid signature and are not named. Example: players 1 and 2 both
//    shifted by the same point in the head {1, 2, 3}, where
//    lambda_1 + lambda_2 = 0 because 3 = 1 + 2. This gives an adversary
//    nothing it could not compute itself: the combiner holds no secret,
//    and the result verifies under the committee key.
//  * A resent partial (a repeated index) never reaches the interpolation
//    twice; the first occurrence of each index is the one the head uses.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace bnr::threshold {

/// `interpolate(span of exactly t+1 partials)` returns the combined
/// signature; `sig_valid(sig)` checks it under the committee key;
/// `part_valid(part)` is Share-Verify (called only with in-range indices).
/// `Part` needs a `uint32_t index`.
template <class Part, class Interpolate, class SigValid, class PartValid>
auto optimistic_combine(size_t n, size_t t, std::span<const Part> parts,
                        Interpolate&& interpolate, SigValid&& sig_valid,
                        PartValid&& part_valid,
                        std::vector<uint32_t>* cheaters = nullptr)
    -> std::invoke_result_t<Interpolate&, std::span<const Part>> {
  auto in_range = [n](const Part& p) { return p.index >= 1 && p.index <= n; };
  auto has_index = [](const std::vector<Part>& v, uint32_t index) {
    for (const auto& q : v)
      if (q.index == index) return true;
    return false;
  };

  std::vector<Part> chosen;
  chosen.reserve(t + 1);
  for (const auto& p : parts) {
    if (chosen.size() == t + 1) break;
    if (in_range(p) && !has_index(chosen, p.index)) chosen.push_back(p);
  }
  if (chosen.size() == t + 1) {
    auto sig = interpolate(std::span<const Part>(chosen));
    if (sig_valid(sig)) return sig;
  }

  chosen.clear();
  for (const auto& p : parts) {
    if (!in_range(p) || has_index(chosen, p.index)) continue;
    if (part_valid(p)) {
      chosen.push_back(p);
      if (chosen.size() == t + 1)
        return interpolate(std::span<const Part>(chosen));
    } else if (cheaters) {
      cheaters->push_back(p.index);
    }
  }
  throw std::runtime_error("combine: fewer than t+1 valid shares");
}

}  // namespace bnr::threshold
