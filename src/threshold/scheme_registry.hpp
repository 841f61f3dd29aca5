// The scheme registry: constructs and owns one `Scheme` plugin instance per
// built-in scheme (RO, DLIN, Agg, BLS) for a given SystemParams, and is the
// single dispatch point the serving stack (RpcServer, CLI smoke flows,
// conformance tests) resolves SchemeId -> plugin through. A new scheme is a
// new plugin in scheme_registry.cpp, a new SchemeId, and one more line in
// the constructor.
#pragma once

#include <memory>
#include <vector>

#include "threshold/params.hpp"
#include "threshold/scheme_api.hpp"

namespace bnr::threshold {

class SchemeRegistry {
 public:
  /// Instantiates every built-in plugin against `params`. Group elements
  /// are only meaningful against one parameter set, so a registry is
  /// per-params, like the schemes themselves.
  explicit SchemeRegistry(const SystemParams& params);

  SchemeRegistry(const SchemeRegistry&) = delete;
  SchemeRegistry& operator=(const SchemeRegistry&) = delete;

  /// Null when no plugin claims the id / name.
  const Scheme* find(SchemeId id) const;
  const Scheme* find(std::string_view name) const;

  /// Throws std::out_of_range on an unknown id — the daemon catches this
  /// and answers an attributable ERROR, never a crash.
  const Scheme& at(SchemeId id) const;

  const std::vector<const Scheme*>& schemes() const { return view_; }

 private:
  std::vector<std::unique_ptr<Scheme>> owned_;
  std::vector<const Scheme*> view_;
};

}  // namespace bnr::threshold
