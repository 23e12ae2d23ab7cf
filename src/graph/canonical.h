#ifndef GAMMA_GRAPH_CANONICAL_H_
#define GAMMA_GRAPH_CANONICAL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/pattern.h"

namespace gpm::graph {

/// Exact canonical byte encoding of a small labeled pattern: the
/// lexicographically smallest encoding over all vertex permutations.
/// Two patterns are isomorphic (label-preserving) iff their canonical
/// encodings are equal.
std::vector<uint8_t> CanonicalEncoding(const Pattern& p);

/// 64-bit hash of CanonicalEncoding — the canonical label used as the
/// aggregation key (§III-B2). Patterns are tiny (≤ 8 vertices), so the
/// permutation search is cheap; embedding-rate callers should memoize via
/// CanonicalCache.
uint64_t CanonicalCode(const Pattern& p);

/// Memoizes pattern → canonical code, keyed by the pattern exactly as
/// numbered (Pattern::operator==; no hash stands in for the key). The
/// aggregation primitive maps every embedding to its pattern's canonical
/// label; embeddings overwhelmingly share a handful of shapes, so this
/// cache reduces per-embedding cost to a hash lookup.
class CanonicalCache {
 public:
  uint64_t Get(const Pattern& p) {
    if (const uint64_t* code = Find(p)) return *code;
    return Insert(p, CanonicalCode(p));
  }

  /// The memoized code of `p`, or nullptr.
  const uint64_t* Find(const Pattern& p) const {
    auto it = memo_.find(p);
    return it == memo_.end() ? nullptr : &it->second;
  }

  /// Records `code` as the canonical code of `p` (kept if already present)
  /// and returns the recorded code.
  uint64_t Insert(const Pattern& p, uint64_t code) {
    return memo_.try_emplace(p, code).first->second;
  }

  std::size_t size() const { return memo_.size(); }

 private:
  struct Hasher {
    std::size_t operator()(const Pattern& p) const { return p.Hash(); }
  };
  std::unordered_map<Pattern, uint64_t, Hasher> memo_;
};

}  // namespace gpm::graph

#endif  // GAMMA_GRAPH_CANONICAL_H_
