#include "threshold/fold.hpp"

#include "curve/point.hpp"
#include "threshold/params.hpp"

namespace bnr::threshold {

void PreparedVerifier::add_to_fold(FoldBuilder& fold,
                                   std::span<const uint8_t> msg,
                                   const SigHandle& sig) const {
  fold.defer(*this, msg, sig);
}

void FoldBuilder::push(Kind kind) {
  members_.push_back({kind, static_cast<uint32_t>(terms_.size())});
}

void FoldBuilder::add(
    std::initializer_list<std::span<const PreparedTerm>> equations) {
  push(Kind::kFold);
  for (const auto& eq : equations) {
    for (const PreparedTerm& t : eq) {
      auto [it, fresh] = slot_of_.try_emplace(
          t.q, static_cast<uint32_t>(tables_.size()));
      if (fresh) tables_.push_back(t.q);
      terms_.push_back({t.p, it->second, equations_});
    }
    ++equations_;
  }
}

void FoldBuilder::add_rejected() { push(Kind::kRejected); }

void FoldBuilder::defer(const PreparedVerifier& v,
                        std::span<const uint8_t> msg, const SigHandle& sig) {
  push(Kind::kDeferred);
  deferred_.push_back({&v, Bytes(msg.begin(), msg.end()), sig,
                       static_cast<uint32_t>(members_.size() - 1)});
}

uint32_t FoldBuilder::term_end(size_t m) const {
  return m + 1 < members_.size() ? members_[m + 1].first_term
                                 : static_cast<uint32_t>(terms_.size());
}

void FoldBuilder::draw() {
  // Equation 0 is the first member's first equation: the one pinned
  // coefficient of every product that holds it.
  while (coeff_.size() < equations_)
    coeff_.push_back(coeff_.empty() ? Fr::one() : random_rlc_coefficient(rng_));
}

// Members deferred to one verifier fold through its own batch_verify and are
// attributed by its verify: the per-key path, kept for wrappers. Returns
// whether every such fold held; fills `ok` when given.
bool FoldBuilder::resolve_deferred(std::vector<bool>* ok) {
  bool all = true;
  std::vector<bool> done(deferred_.size(), false);
  for (size_t first = 0; first < deferred_.size(); ++first) {
    if (done[first]) continue;
    const PreparedVerifier* v = deferred_[first].v;
    std::vector<size_t> idx;
    std::vector<Bytes> msgs;
    std::vector<SigHandle> sigs;
    for (size_t j = first; j < deferred_.size(); ++j) {
      if (deferred_[j].v != v) continue;
      done[j] = true;
      idx.push_back(j);
      msgs.push_back(deferred_[j].msg);
      sigs.push_back(deferred_[j].sig);
    }
    if (v->batch_verify(msgs, sigs, rng_)) continue;
    all = false;
    if (!ok) return false;
    for (size_t j : idx) {
      ++subproducts_;
      (*ok)[deferred_[j].member] = v->verify(deferred_[j].msg, deferred_[j].sig);
    }
  }
  return all;
}

// prod_tables e(sum over the set's terms on that table of coeff * P, table):
// one MSM per distinct table, one multi-Miller loop, one final
// exponentiation.
bool FoldBuilder::rlc(std::span<const uint32_t> set) const {
  // Counting sort of the set's terms by table slot.
  std::vector<uint32_t> start(tables_.size() + 1, 0);
  for (uint32_t m : set)
    for (uint32_t t = members_[m].first_term; t < term_end(m); ++t)
      ++start[terms_[t].slot + 1];
  for (size_t s = 0; s < tables_.size(); ++s) start[s + 1] += start[s];
  std::vector<G1Affine> points(start.back());
  std::vector<Fr> scalars(start.back());
  std::vector<uint32_t> fill(start.begin(), start.end() - 1);
  for (uint32_t m : set)
    for (uint32_t t = members_[m].first_term; t < term_end(m); ++t) {
      const uint32_t at = fill[terms_[t].slot]++;
      points[at] = terms_[t].p;
      scalars[at] = coeff_[terms_[t].eq];
    }
  std::vector<G1> sums;
  std::vector<const G2Prepared*> tables;
  for (size_t s = 0; s < tables_.size(); ++s) {
    const size_t n = start[s + 1] - start[s];
    if (n == 0) continue;
    sums.push_back(msm<G1>(std::span<const G1Affine>(points).subspan(start[s], n),
                           std::span<const Fr>(scalars).subspan(start[s], n)));
    tables.push_back(tables_[s]);
  }
  const auto affine = G1::batch_to_affine(sums);
  std::vector<PreparedTerm> terms;
  terms.reserve(affine.size());
  for (size_t i = 0; i < affine.size(); ++i)
    terms.push_back({affine[i], tables[i]});
  return pairing_product_is_one(terms);
}

// The member's own check: each equation with coefficient 1, as verify().
bool FoldBuilder::exact(uint32_t m) const {
  std::vector<PreparedTerm> eq;
  const uint32_t end = term_end(m);
  for (uint32_t t = members_[m].first_term; t < end; ++t) {
    eq.push_back({terms_[t].p, tables_[terms_[t].slot]});
    if (t + 1 == end || terms_[t + 1].eq != terms_[t].eq) {
      if (!pairing_product_is_one(eq)) return false;
      eq.clear();
    }
  }
  return true;
}

bool FoldBuilder::product(std::span<const uint32_t> set) const {
  return set.size() == 1 ? exact(set[0]) : rlc(set);
}

bool FoldBuilder::holds() {
  draw();
  std::vector<uint32_t> fold;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (members_[m].kind == Kind::kRejected) return false;
    if (members_[m].kind == Kind::kFold) fold.push_back(m);
  }
  if (!resolve_deferred(nullptr)) return false;
  return fold.empty() || rlc(fold);
}

std::vector<bool> FoldBuilder::verdicts() {
  draw();
  std::vector<bool> ok(members_.size(), true);
  std::vector<uint32_t> fold;
  for (uint32_t m = 0; m < members_.size(); ++m) {
    if (members_[m].kind == Kind::kRejected) ok[m] = false;
    if (members_[m].kind == Kind::kFold) fold.push_back(m);
  }
  if (!resolve_deferred(&ok)) failed_ = true;
  if (!fold.empty() && !product(fold)) {
    failed_ = true;
    attribute(fold, /*evaluated=*/true, ok);
  }
  return ok;
}

// `set`'s product fails: it was evaluated, or its sibling held under the
// same coefficients (then `evaluated` is false).
void FoldBuilder::attribute(std::span<const uint32_t> set, bool evaluated,
                            std::vector<bool>& ok) {
  if (set.size() == 1) {
    // An evaluated singleton was its exact check; an inferred one is checked
    // now, so only an exact check ever rejects.
    if (!evaluated) ++subproducts_;
    ok[set[0]] = !evaluated && exact(set[0]);
    return;
  }
  const auto left = set.first((set.size() + 1) / 2);
  const auto right = set.subspan(left.size());
  ++subproducts_;
  if (product(left)) {
    attribute(right, /*evaluated=*/false, ok);
    return;
  }
  attribute(left, /*evaluated=*/true, ok);
  ++subproducts_;
  if (!product(right)) attribute(right, /*evaluated=*/true, ok);
}

}  // namespace bnr::threshold
