#include "core/plan_verifier.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"

namespace gpm::core {
namespace {

using graph::Pattern;

// Mirrors the (file-local) constant in extension.cc: one embedding-table
// entry is a candidate unit plus its parent row index.
constexpr std::size_t kEntryBytes = sizeof(Unit) + sizeof(RowIndex);

std::string VecToString(const std::vector<int>& v) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) os << ",";
    os << v[i];
  }
  os << "]";
  return os.str();
}

bool PatternConnected(const Pattern& p) {
  const int n = p.num_vertices();
  if (n <= 1) return true;
  std::array<bool, Pattern::kMaxVertices> seen{};
  std::vector<int> stack = {0};
  seen[0] = true;
  int reached = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int w = 0; w < n; ++w) {
      if (!seen[w] && p.HasEdge(v, w)) {
        seen[w] = true;
        ++reached;
        stack.push_back(w);
      }
    }
  }
  return reached == n;
}

// Independent automorphism enumeration: label- and degree-pruned
// backtracking over partial vertex images. Deliberately a different
// algorithm from symmetry.cc's next_permutation sweep (and from
// Pattern::CountAutomorphisms), so the verifier is not the compiler
// checking itself.
void AutomorphismBacktrack(const Pattern& p, std::vector<int>* sigma,
                           std::array<bool, Pattern::kMaxVertices>* used,
                           int i, std::vector<std::vector<int>>* out) {
  const int n = p.num_vertices();
  if (i == n) {
    out->push_back(*sigma);
    return;
  }
  for (int w = 0; w < n; ++w) {
    if ((*used)[w]) continue;
    if (p.label(i) != p.label(w)) continue;
    if (p.degree(i) != p.degree(w)) continue;
    bool consistent = true;
    for (int j = 0; j < i; ++j) {
      if (p.HasEdge(i, j) != p.HasEdge(w, (*sigma)[j])) {
        consistent = false;
        break;
      }
    }
    if (!consistent) continue;
    (*sigma)[i] = w;
    (*used)[w] = true;
    AutomorphismBacktrack(p, sigma, used, i + 1, out);
    (*used)[w] = false;
  }
}

std::vector<std::vector<int>> EnumerateAutomorphisms(const Pattern& p) {
  std::vector<std::vector<int>> out;
  std::vector<int> sigma(p.num_vertices());
  std::array<bool, Pattern::kMaxVertices> used{};
  AutomorphismBacktrack(p, &sigma, &used, 0, &out);
  return out;
}

// Lexicographic index of a permutation of 0..k-1 (Lehmer code), used to
// bucket the k! candidate rank orders during the orbit sweep.
uint32_t LehmerIndex(const std::vector<int>& p) {
  const int k = static_cast<int>(p.size());
  uint32_t idx = 0;
  for (int i = 0; i < k; ++i) {
    int smaller = 0;
    for (int j = i + 1; j < k; ++j) {
      if (p[j] < p[i]) ++smaller;
    }
    idx = idx * static_cast<uint32_t>(k - i) + static_cast<uint32_t>(smaller);
  }
  return idx;
}

uint32_t Factorial(int k) {
  uint32_t f = 1;
  for (int i = 2; i <= k; ++i) f *= static_cast<uint32_t>(i);
  return f;
}

// All ordering constraints the plan imposes across matching-order
// positions, normalized to (a, b) meaning "the data vertex at position a
// has a smaller id than the one at position b": folded ascending chains,
// the edge-parallel ascending pair scan, and explicit restrictions.
std::vector<std::pair<int, int>> EffectiveRestrictions(
    const CompiledPlan& plan) {
  std::vector<std::pair<int, int>> all;
  if (plan.start == StartMode::kEdgeParallel && plan.start_ascending) {
    all.emplace_back(0, 1);
  }
  for (std::size_t i = 0; i < plan.levels.size(); ++i) {
    const CompiledLevel& level = plan.levels[i];
    const int d = plan.first_depth() + static_cast<int>(i);
    if (level.require_ascending) {
      for (int j = 0; j < d; ++j) all.emplace_back(j, d);
    }
    for (const SymmetryRestriction& r : level.restrictions) {
      all.emplace_back(r.smaller_pos, r.larger_pos);
    }
  }
  return all;
}

class Checker {
 public:
  Checker(const CompiledPlan& plan, const VerifyOptions& options,
          VerifyReport* report)
      : plan_(plan), options_(options), report_(report) {}

  void Run() {
    report_->kind = PlanKindName(plan_.kind);
    report_->structural_checked = true;
    Structural();
    // A structurally broken plan (order not a permutation, columns out of
    // bounds) makes the semantic machinery itself unsound to run; the
    // structural refutation is final.
    if (report_->structural_passed) {
      switch (plan_.kind) {
        case PlanKind::kSubgraphMatch:
          SemanticMatch();
          break;
        case PlanKind::kEdgeJoin:
          SemanticEdgeJoin();
          break;
        case PlanKind::kMotifCensus:
        case PlanKind::kFrequentMining:
          break;  // no pattern: nothing semantic beyond the shape checks
      }
      Resources();
    }
    report_->verified = report_->errors == 0;
  }

 private:
  enum Tier { kStructural, kSemantic, kResources };

  bool Require(Tier tier, bool ok, const char* obligation, int depth,
               std::string message,
               VerifySeverity severity = VerifySeverity::kError) {
    ++report_->obligations_checked;
    if (ok) return true;
    VerifyFinding f;
    f.obligation = obligation;
    f.severity = severity;
    f.depth = depth;
    f.message = std::move(message);
    report_->findings.push_back(std::move(f));
    if (severity == VerifySeverity::kError) {
      ++report_->errors;
      switch (tier) {
        case kStructural:
          report_->structural_passed = false;
          break;
        case kSemantic:
          report_->semantic_passed = false;
          break;
        case kResources:
          report_->resources_passed = false;
          break;
      }
    } else {
      ++report_->warnings;
    }
    return false;
  }

  // -- Tier 1: structural well-formedness ---------------------------------

  void Structural() {
    switch (plan_.kind) {
      case PlanKind::kSubgraphMatch:
        StructuralVertex(/*motif=*/false);
        break;
      case PlanKind::kMotifCensus:
        StructuralVertex(/*motif=*/true);
        break;
      case PlanKind::kFrequentMining:
        StructuralFpm();
        break;
      case PlanKind::kEdgeJoin:
        StructuralEdgeJoin();
        break;
    }
  }

  void StructuralVertex(bool motif) {
    const std::vector<int>& order = plan_.order;
    const int k = static_cast<int>(order.size());
    if (!Require(kStructural, k >= 1 && k <= Pattern::kMaxVertices,
                 "order-permutation", -1,
                 "matching order must have 1.." +
                     std::to_string(Pattern::kMaxVertices) +
                     " entries, has " + std::to_string(k))) {
      return;
    }
    std::array<bool, Pattern::kMaxVertices> seen{};
    bool perm = true;
    for (int v : order) {
      if (v < 0 || v >= k || seen[v]) {
        perm = false;
        break;
      }
      seen[v] = true;
    }
    if (!Require(kStructural, perm, "order-permutation", -1,
                 "matching order " + VecToString(order) +
                     " is not a permutation of 0.." + std::to_string(k - 1))) {
      return;
    }
    const Pattern& p = plan_.pattern;
    if (!motif) {
      if (!Require(kStructural, p.num_vertices() == k, "order-permutation",
                   -1,
                   "matching order covers " + std::to_string(k) +
                       " vertices but the pattern has " +
                       std::to_string(p.num_vertices()))) {
        return;
      }
      Require(kStructural, PatternConnected(p), "pattern-connected", -1,
              "pattern graph is not connected");
    }

    const bool ep = plan_.start == StartMode::kEdgeParallel;
    if (ep) {
      if (!Require(kStructural, k >= 2, "start-edge", -1,
                   "edge-parallel start needs at least two pattern "
                   "vertices")) {
        return;
      }
      if (!motif) {
        Require(kStructural, p.HasEdge(order[0], order[1]), "start-edge", 1,
                "edge-parallel start requires a pattern edge between "
                "order[0]=" + std::to_string(order[0]) + " and order[1]=" +
                    std::to_string(order[1]));
      }
    }
    if (motif) {
      Require(kStructural, !ep, "motif-shape", -1,
              "motif census requires a vertex-parallel start");
      Require(kStructural,
              plan_.start_label == Pattern::kAnyLabel && !plan_.symmetry_broken,
              "motif-shape", -1,
              "motif census is unlabeled and never breaks symmetry "
              "(supports divide by connected-ordering multiplicity "
              "instead)");
      Require(kStructural, plan_.edge_order.empty(), "motif-shape", -1,
              "motif census plans carry no edge order");
    } else {
      Require(kStructural, plan_.start_label == p.label(order[0]),
              "label-consistent", 0,
              "start label does not match the pattern label of order[0]=" +
                  std::to_string(order[0]));
      if (ep && k >= 2) {
        Require(kStructural, plan_.second_label == p.label(order[1]),
                "label-consistent", 1,
                "second start label does not match the pattern label of "
                "order[1]=" + std::to_string(order[1]));
      }
    }

    const int fd = plan_.first_depth();
    if (!Require(kStructural, static_cast<int>(plan_.levels.size()) == k - fd,
                 "level-count", -1,
                 "plan has " + std::to_string(plan_.levels.size()) +
                     " levels; a " + std::to_string(k) + "-vertex " +
                     StartModeName(plan_.start) + " plan needs " +
                     std::to_string(k - fd))) {
      return;
    }

    for (std::size_t i = 0; i < plan_.levels.size(); ++i) {
      const CompiledLevel& level = plan_.levels[i];
      const int d = fd + static_cast<int>(i);
      std::array<bool, Pattern::kMaxVertices> used{};
      for (int pos : level.intersect_positions) {
        if (!Require(kStructural, pos >= 0 && pos < d, "intersect-bounds", d,
                     "intersect position " + std::to_string(pos) +
                         " does not reference an already-bound column "
                         "(depth " + std::to_string(d) + ")")) {
          continue;
        }
        Require(kStructural, !used[pos], "intersect-bounds", d,
                "intersect position " + std::to_string(pos) +
                    " listed twice");
        used[pos] = true;
      }
      if (motif) {
        Require(kStructural, level.intersect_positions.empty(), "motif-shape",
                d,
                "motif census levels extend over the union neighborhood "
                "(no intersect set)");
        Require(kStructural, level.candidate_label == Pattern::kAnyLabel,
                "motif-shape", d, "motif census levels are unlabeled");
        Require(kStructural,
                level.restrictions.empty() && !level.require_ascending,
                "motif-shape", d,
                "motif census levels carry no symmetry restrictions");
        Require(kStructural, level.enforce_injective, "motif-shape", d,
                "motif census levels must enforce injectivity");
      } else {
        Require(kStructural, !level.intersect_positions.empty(),
                "prefix-connected", d,
                "level has an empty intersect set: the matching-order "
                "prefix through depth " + std::to_string(d) +
                    " is not connected");
        Require(kStructural, level.candidate_label == p.label(order[d]),
                "label-consistent", d,
                "candidate label does not match the pattern label of "
                "order[" + std::to_string(d) + "]=" +
                    std::to_string(order[d]));
      }
      for (const SymmetryRestriction& r : level.restrictions) {
        const bool anchored =
            (r.larger_pos == d && r.smaller_pos >= 0 && r.smaller_pos < d) ||
            (r.smaller_pos == d && r.larger_pos >= 0 && r.larger_pos < d);
        Require(kStructural, anchored, "restriction-bounds", d,
                "restriction (" + std::to_string(r.smaller_pos) + " < " +
                    std::to_string(r.larger_pos) +
                    ") must pair the level's own position " +
                    std::to_string(d) + " with an already-bound column");
      }
      Require(kStructural,
              !level.count_only || (!motif && i + 1 == plan_.levels.size()),
              "count-only-last", d,
              motif ? "motif census aggregation reads the full table; no "
                      "level may be count-only"
                    : "count-only is only legal on the final level (later "
                      "levels would read a column that was never "
                      "materialized)");
      if (level.pre_merge.has_value() && *level.pre_merge) {
        Require(kStructural, level.intersect_positions.size() >= 2,
                "pre-merge-width", d,
                "pre_merge pinned on with fewer than two intersect columns "
                "(grouped intersection has no prefix work to hoist)",
                VerifySeverity::kWarning);
      }
    }
  }

  void StructuralFpm() {
    Require(kStructural,
            plan_.max_edges >= 1 &&
                plan_.max_edges <= Pattern::kMaxVertices - 1,
            "fpm-params", -1,
            "frequent mining needs max_edges in [1, " +
                std::to_string(Pattern::kMaxVertices - 1) +
                "] (a k-edge pattern spans up to k + 1 vertices), has " +
                std::to_string(plan_.max_edges));
    Require(kStructural,
            plan_.order.empty() && plan_.levels.empty() &&
                plan_.edge_order.empty(),
            "fpm-params", -1,
            "frequent mining is driven by max_edges; the plan carries no "
            "matching order, vertex levels, or edge order");
    Require(kStructural, plan_.start == StartMode::kVertexParallel,
            "fpm-params", -1,
            "frequent mining seeds from the edge table; start mode must "
            "stay vertex-parallel (default)");
  }

  void StructuralEdgeJoin() {
    const Pattern& p = plan_.pattern;
    if (!Require(kStructural, p.num_vertices() >= 2, "edge-order", -1,
                 "edge join needs a pattern with at least one edge")) {
      return;
    }
    Require(kStructural, PatternConnected(p), "pattern-connected", -1,
            "pattern graph is not connected");
    Require(kStructural, plan_.order.empty() && plan_.levels.empty(),
            "edge-order", -1,
            "edge-join plans carry no vertex matching order or levels");

    const auto edges = p.EdgeList();
    if (!Require(kStructural, plan_.edge_order.size() == edges.size(),
                 "edge-order", -1,
                 "edge order lists " + std::to_string(plan_.edge_order.size()) +
                     " edges; the pattern has " +
                     std::to_string(edges.size()))) {
      return;
    }
    std::array<std::array<bool, Pattern::kMaxVertices>,
               Pattern::kMaxVertices>
        covered{};
    std::array<bool, Pattern::kMaxVertices> bound{};
    for (std::size_t i = 0; i < plan_.edge_order.size(); ++i) {
      auto [a, b] = plan_.edge_order[i];
      const int step = static_cast<int>(i);
      if (!Require(kStructural,
                   a >= 0 && b >= 0 && a < p.num_vertices() &&
                       b < p.num_vertices() && a != b && p.HasEdge(a, b),
                   "edge-order", step,
                   "edge order entry (" + std::to_string(a) + "," +
                       std::to_string(b) + ") is not a pattern edge")) {
        continue;
      }
      const int lo = std::min(a, b), hi = std::max(a, b);
      Require(kStructural, !covered[lo][hi], "edge-order", step,
              "edge (" + std::to_string(lo) + "," + std::to_string(hi) +
                  ") appears twice in the edge order");
      covered[lo][hi] = true;
      Require(kStructural, i == 0 || bound[a] || bound[b], "edge-order",
              step,
              "edge (" + std::to_string(a) + "," + std::to_string(b) +
                  ") shares no vertex with the edges before it (prefix "
                  "not connected)");
      bound[a] = bound[b] = true;
    }
  }

  // -- Tier 2: semantic soundness ------------------------------------------

  void SemanticMatch() {
    report_->semantic_checked = true;
    const Pattern& p = plan_.pattern;
    const std::vector<int>& order = plan_.order;
    const int k = static_cast<int>(order.size());

    const std::vector<std::vector<int>> autos = EnumerateAutomorphisms(p);
    report_->automorphisms = autos.size();
    Require(kSemantic, plan_.automorphisms == autos.size(),
            "automorphism-count", -1,
            "plan claims " + std::to_string(plan_.automorphisms) +
                " automorphisms; independent enumeration finds " +
                std::to_string(autos.size()));

    CheckEdgeCoverage();
    CheckInjectivity();

    // Orbit analysis of the restriction set. An adversarial data graph can
    // realize any relative id order of the k matched vertices, and the
    // embeddings of one instance form exactly one orbit of rank orders
    // under the automorphism group's action on positions. Soundness /
    // completeness therefore reduce to: every orbit keeps >= 1 / exactly 1
    // rank order satisfying the restrictions.
    const std::vector<std::pair<int, int>> effective =
        EffectiveRestrictions(plan_);
    if (!plan_.symmetry_broken) {
      // Without the symmetry-broken claim the engine divides embeddings by
      // |Aut|, which is only correct when no embedding is ever filtered.
      Require(kSemantic, effective.empty(), "restriction-unclaimed", -1,
              "plan filters embeddings through " +
                  std::to_string(effective.size()) +
                  " ordering restriction(s) without claiming "
                  "symmetry_broken; dividing by |Aut| would undercount");
      return;
    }

    // pos_of[v] = position of pattern vertex v in the matching order;
    // pis[s][d] = position that automorphism s maps position d onto.
    std::array<int, Pattern::kMaxVertices> pos_of{};
    for (int d = 0; d < k; ++d) pos_of[order[d]] = d;
    std::vector<std::vector<int>> pis;
    pis.reserve(autos.size());
    for (const std::vector<int>& sigma : autos) {
      std::vector<int> pi(k);
      for (int d = 0; d < k; ++d) pi[d] = pos_of[sigma[order[d]]];
      pis.push_back(std::move(pi));
    }

    const uint32_t kfact = Factorial(k);
    std::vector<uint8_t> visited(kfact, 0);
    std::vector<int> r(k), image(k);
    std::iota(r.begin(), r.end(), 0);
    int orbits_empty = 0, orbits_multi = 0;
    std::string example_empty, example_multi;
    do {
      if (visited[LehmerIndex(r)]) continue;
      int satisfying = 0;
      for (const std::vector<int>& pi : pis) {
        for (int d = 0; d < k; ++d) image[d] = r[pi[d]];
        const uint32_t idx = LehmerIndex(image);
        if (visited[idx]) continue;  // group action is free; first touch
        visited[idx] = 1;
        bool ok = true;
        for (auto [a, b] : effective) {
          if (image[a] >= image[b]) {
            ok = false;
            break;
          }
        }
        if (ok) ++satisfying;
      }
      if (satisfying == 0 && ++orbits_empty == 1) {
        example_empty = VecToString(r);
      }
      if (satisfying > 1 && ++orbits_multi == 1) {
        example_multi = VecToString(r);
      }
    } while (std::next_permutation(r.begin(), r.end()));

    Require(kSemantic, orbits_empty == 0, "restriction-sound", -1,
            "restrictions eliminate every representative of " +
                std::to_string(orbits_empty) +
                " automorphism orbit(s); instances matching rank order " +
                example_empty + " would never be counted");
    Require(kSemantic, orbits_multi == 0, "restriction-complete", -1,
            "restrictions keep multiple representatives in " +
                std::to_string(orbits_multi) +
                " automorphism orbit(s); instances matching rank order " +
                example_multi + " would be counted more than once");
  }

  void CheckEdgeCoverage() {
    const Pattern& p = plan_.pattern;
    const std::vector<int>& order = plan_.order;
    std::array<std::array<int, Pattern::kMaxVertices>, Pattern::kMaxVertices>
        cover{};
    auto add = [&cover](int u, int v) {
      ++cover[std::min(u, v)][std::max(u, v)];
    };
    if (plan_.start == StartMode::kEdgeParallel) {
      add(order[0], order[1]);
    }
    const int fd = plan_.first_depth();
    for (std::size_t i = 0; i < plan_.levels.size(); ++i) {
      const int d = fd + static_cast<int>(i);
      for (int pos : plan_.levels[i].intersect_positions) {
        const int u = order[pos], v = order[d];
        if (!Require(kSemantic, p.HasEdge(u, v), "edge-coverage", d,
                     "level intersects position " + std::to_string(pos) +
                         " but the pattern has no edge (" +
                         std::to_string(u) + "," + std::to_string(v) +
                         "); the intersection would drop valid "
                         "embeddings")) {
          continue;
        }
        add(u, v);
      }
    }
    for (auto [u, v] : p.EdgeList()) {
      const int n = cover[u][v];
      Require(kSemantic, n == 1, "edge-coverage", -1,
              "pattern edge (" + std::to_string(u) + "," +
                  std::to_string(v) + ") is checked " + std::to_string(n) +
                  " times across the plan's intersections; every query "
                  "edge must be enforced exactly once");
    }
  }

  void CheckInjectivity() {
    // enforce_injective=false is sound only when every earlier position is
    // already ordered against the level's position by the transitive
    // closure of the restrictions (a chain of strict id inequalities
    // implies distinctness).
    const int k = static_cast<int>(plan_.order.size());
    std::array<std::array<bool, Pattern::kMaxVertices>,
               Pattern::kMaxVertices>
        reach{};
    for (auto [a, b] : EffectiveRestrictions(plan_)) reach[a][b] = true;
    for (int m = 0; m < k; ++m) {
      for (int a = 0; a < k; ++a) {
        if (!reach[a][m]) continue;
        for (int b = 0; b < k; ++b) {
          if (reach[m][b]) reach[a][b] = true;
        }
      }
    }
    const int fd = plan_.first_depth();
    for (std::size_t i = 0; i < plan_.levels.size(); ++i) {
      if (plan_.levels[i].enforce_injective) continue;
      const int d = fd + static_cast<int>(i);
      bool implied = true;
      for (int j = 0; j < d && implied; ++j) {
        implied = reach[j][d] || reach[d][j];
      }
      Require(kSemantic, implied, "injective-required", d,
              "level disables the injectivity filter but the restrictions "
              "do not order every earlier position against depth " +
                  std::to_string(d) +
                  "; a data vertex could be matched twice");
    }
  }

  void SemanticEdgeJoin() {
    report_->semantic_checked = true;
    const std::vector<std::vector<int>> autos =
        EnumerateAutomorphisms(plan_.pattern);
    report_->automorphisms = autos.size();
    Require(kSemantic, plan_.automorphisms == autos.size(),
            "automorphism-count", -1,
            "plan claims " + std::to_string(plan_.automorphisms) +
                " automorphisms; independent enumeration finds " +
                std::to_string(autos.size()));
  }

  // -- Tier 3: bounded abstract interpretation over resources --------------

  void Resources() {
    if (options_.graph == nullptr) return;
    report_->resources_checked = true;
    const graph::Graph& g = *options_.graph;
    const ExtensionOptions* eng = options_.engine_extension;
    const std::size_t pool_bytes =
        eng != nullptr ? eng->pool_bytes : ExtensionOptions{}.pool_bytes;
    const uint64_t pool_entries = pool_bytes / kEntryBytes;
    const double max_deg = static_cast<double>(g.max_degree());

    auto check_prealloc = [&](bool prealloc, uint64_t worst, int depth,
                              VerifyAbstractLevel* a) {
      a->pool_entries = pool_entries;
      if (!prealloc) return;
      a->prealloc_entries = worst;
      Require(kResources, worst <= pool_entries, "prealloc-overflow", depth,
              "prealloc write strategy cannot fit one row's worst case (" +
                  std::to_string(worst) + " results) in the " +
                  std::to_string(pool_bytes) +
                  "-byte device pool; the extension would fail with "
                  "device-out-of-memory",
              VerifySeverity::kWarning);
    };

    switch (plan_.kind) {
      case PlanKind::kSubgraphMatch:
      case PlanKind::kMotifCensus: {
        const int fd = plan_.first_depth();
        double rows =
            plan_.start == StartMode::kEdgeParallel
                ? static_cast<double>(g.num_edges()) *
                      (plan_.start_ascending ? 1.0 : 2.0)
                : StartVertexBound(g);
        VerifyAbstractLevel start;
        start.depth = fd - 1;
        start.rows_hi = rows;
        start.width = fd;
        start.pool_entries = pool_entries;
        report_->abstract_levels.push_back(start);
        for (std::size_t i = 0; i < plan_.levels.size(); ++i) {
          const CompiledLevel& level = plan_.levels[i];
          const int d = fd + static_cast<int>(i);
          // Intersections are bounded by one adjacency list; union
          // extension by the prefix's combined neighborhoods.
          const double cap = level.intersect_positions.empty()
                                 ? static_cast<double>(d) * max_deg
                                 : max_deg;
          rows = std::min(rows * cap, 1e300);
          VerifyAbstractLevel a;
          a.depth = d;
          a.rows_hi = rows;
          a.width = d + 1;
          const bool prealloc =
              level.write_strategy.has_value()
                  ? *level.write_strategy == WriteStrategy::kPreAlloc
                  : eng != nullptr &&
                        eng->write_strategy == WriteStrategy::kPreAlloc;
          check_prealloc(prealloc, g.max_degree(), d, &a);
          report_->abstract_levels.push_back(a);
        }
        break;
      }
      case PlanKind::kFrequentMining:
      case PlanKind::kEdgeJoin: {
        const bool inherited_prealloc =
            eng != nullptr &&
            eng->write_strategy == WriteStrategy::kPreAlloc;
        const int steps = plan_.kind == PlanKind::kFrequentMining
                              ? plan_.max_edges - 1
                              : static_cast<int>(plan_.edge_order.size()) - 1;
        double rows = static_cast<double>(g.num_edges());
        VerifyAbstractLevel start;
        start.depth = 1;
        start.rows_hi = rows;
        start.width = 1;
        start.pool_entries = pool_entries;
        report_->abstract_levels.push_back(start);
        for (int i = 1; i <= steps; ++i) {
          // An i-edge embedding touches at most i+1 vertices; each
          // contributes at most one adjacency list of candidate edges.
          const uint64_t worst =
              static_cast<uint64_t>(g.max_degree()) *
              static_cast<uint64_t>(i + 1);
          rows = std::min(rows * static_cast<double>(worst), 1e300);
          VerifyAbstractLevel a;
          a.depth = i + 1;
          a.rows_hi = rows;
          a.width = i + 1;
          check_prealloc(inherited_prealloc, worst, i + 1, &a);
          report_->abstract_levels.push_back(a);
        }
        break;
      }
    }
  }

  double StartVertexBound(const graph::Graph& g) const {
    if (plan_.start_label == Pattern::kAnyLabel || !g.labeled()) {
      return static_cast<double>(g.num_vertices());
    }
    std::size_t n = 0;
    for (graph::Label l : g.labels()) {
      if (l == plan_.start_label) ++n;
    }
    return static_cast<double>(n);
  }

  const CompiledPlan& plan_;
  const VerifyOptions& options_;
  VerifyReport* report_;
};

}  // namespace

const char* VerifySeverityName(VerifySeverity severity) {
  switch (severity) {
    case VerifySeverity::kWarning:
      return "warning";
    case VerifySeverity::kError:
      return "error";
  }
  return "error";
}

VerifyReport PlanVerifier::Verify(const CompiledPlan& plan) const {
  VerifyReport report;
  Checker(plan, options_, &report).Run();
  return report;
}

std::string VerifyReport::ToJson() const {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.Key("schema").Value("gamma.verify.v1");
  w.Key("kind").Value(kind);
  w.Key("verified").Value(verified);
  w.Key("obligations_checked").Value(obligations_checked);
  w.Key("errors").Value(errors);
  w.Key("warnings").Value(warnings);
  w.Key("automorphisms").Value(automorphisms);
  w.Key("tiers").BeginObject();
  const struct {
    const char* name;
    bool checked;
    bool passed;
  } tiers[] = {
      {"structural", structural_checked, structural_passed},
      {"semantic", semantic_checked, semantic_passed},
      {"resources", resources_checked, resources_passed},
  };
  for (const auto& t : tiers) {
    w.Key(t.name).BeginObject();
    w.Key("checked").Value(t.checked);
    w.Key("passed").Value(t.passed);
    w.EndObject();
  }
  w.EndObject();
  w.Key("abstract").BeginArray();
  for (const VerifyAbstractLevel& a : abstract_levels) {
    w.BeginObject();
    w.Key("depth").Value(a.depth);
    w.Key("rows_hi").Value(a.rows_hi);
    w.Key("width").Value(a.width);
    w.Key("prealloc_entries").Value(a.prealloc_entries);
    w.Key("pool_entries").Value(a.pool_entries);
    w.EndObject();
  }
  w.EndArray();
  w.Key("findings").BeginArray();
  for (const VerifyFinding& f : findings) {
    w.BeginObject();
    w.Key("obligation").Value(f.obligation);
    w.Key("severity").Value(VerifySeverityName(f.severity));
    w.Key("depth").Value(f.depth);
    w.Key("message").Value(f.message);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
  return os.str();
}

std::string VerifyReport::ReportText() const {
  std::ostringstream os;
  os << (verified ? "VERIFIED" : "REFUTED") << " " << kind << " plan: "
     << obligations_checked << " obligation(s) checked, " << errors
     << " error(s), " << warnings << " warning(s)\n";
  for (const VerifyFinding& f : findings) {
    os << "  [" << VerifySeverityName(f.severity) << "] " << f.obligation;
    if (f.depth >= 0) os << " @depth " << f.depth;
    os << ": " << f.message << "\n";
  }
  return os.str();
}

Result<VerifiedPlan> VerifiedPlan::Make(CompiledPlan plan,
                                        const VerifyOptions& options) {
  VerifyReport report = PlanVerifier(options).Verify(plan);
  if (!report.verified) {
    std::string msg = "plan refuted by static verifier: ";
    for (const VerifyFinding& f : report.findings) {
      if (f.severity == VerifySeverity::kError) {
        msg += f.obligation + ": " + f.message;
        break;
      }
    }
    return Status::FailedPrecondition(std::move(msg));
  }
  return VerifiedPlan(std::move(plan), std::move(report));
}

}  // namespace gpm::core
