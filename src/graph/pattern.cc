#include "graph/pattern.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "common/random.h"

namespace gpm::graph {

Pattern::Pattern(int num_vertices) : n_(num_vertices) {
  GAMMA_CHECK(num_vertices >= 1 && num_vertices <= kMaxVertices)
      << "pattern size out of range: " << num_vertices;
  labels_.fill(kAnyLabel);
}

uint64_t Pattern::Hash() const {
  // Polynomial fold of one (adjacency row, label) word per vertex, then a
  // single finalizing mix.
  uint64_t h = static_cast<uint64_t>(n_);
  for (int i = 0; i < n_; ++i) {
    h = h * 0x9e3779b97f4a7c15ull +
        ((static_cast<uint64_t>(adj_[i]) << 32) | labels_[i]);
  }
  return Mix64(h);
}

int Pattern::num_edges() const {
  int m = 0;
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      if (HasEdge(i, j)) ++m;
    }
  }
  return m;
}

void Pattern::AddEdge(int i, int j) {
  GAMMA_CHECK(i != j && i >= 0 && j >= 0 && i < n_ && j < n_)
      << "bad pattern edge (" << i << "," << j << ")";
  adj_[i] |= static_cast<uint8_t>(1u << j);
  adj_[j] |= static_cast<uint8_t>(1u << i);
}

int Pattern::degree(int i) const {
  return __builtin_popcount(adj_[i]);
}

bool Pattern::labeled() const {
  for (int i = 0; i < n_; ++i) {
    if (labels_[i] != kAnyLabel) return true;
  }
  return false;
}

std::vector<int> Pattern::BackwardNeighbors(int i, int limit) const {
  std::vector<int> out;
  for (int j = 0; j < limit; ++j) {
    if (HasEdge(i, j)) out.push_back(j);
  }
  return out;
}

std::vector<std::pair<int, int>> Pattern::EdgeList() const {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      if (HasEdge(i, j)) edges.emplace_back(i, j);
    }
  }
  return edges;
}

std::vector<int> Pattern::DefaultMatchingOrder() const {
  std::vector<int> order;
  std::vector<bool> matched(n_, false);
  int start = 0;
  for (int i = 1; i < n_; ++i) {
    if (degree(i) > degree(start)) start = i;
  }
  order.push_back(start);
  matched[start] = true;
  while (static_cast<int>(order.size()) < n_) {
    int best = -1, best_back = -1, best_deg = -1;
    for (int i = 0; i < n_; ++i) {
      if (matched[i]) continue;
      int back = 0;
      for (int j : order) {
        if (HasEdge(i, j)) ++back;
      }
      if (back > best_back ||
          (back == best_back && degree(i) > best_deg)) {
        best = i;
        best_back = back;
        best_deg = degree(i);
      }
    }
    order.push_back(best);
    matched[best] = true;
  }
  return order;
}

Pattern Pattern::Permuted(const std::vector<int>& perm) const {
  GAMMA_CHECK(static_cast<int>(perm.size()) == n_) << "bad permutation";
  Pattern out(n_);
  for (int i = 0; i < n_; ++i) {
    out.labels_[perm[i]] = labels_[i];
    for (int j = i + 1; j < n_; ++j) {
      if (HasEdge(i, j)) out.AddEdge(perm[i], perm[j]);
    }
  }
  return out;
}

int Pattern::CountAutomorphisms() const {
  std::vector<int> perm(n_);
  std::iota(perm.begin(), perm.end(), 0);
  int count = 0;
  do {
    bool auto_ok = true;
    for (int i = 0; i < n_ && auto_ok; ++i) {
      if (labels_[perm[i]] != labels_[i]) auto_ok = false;
      for (int j = i + 1; j < n_ && auto_ok; ++j) {
        if (HasEdge(i, j) != HasEdge(perm[i], perm[j])) auto_ok = false;
      }
    }
    if (auto_ok) ++count;
  } while (std::next_permutation(perm.begin(), perm.end()));
  return count;
}

namespace {

// Backtracking injective embedding of `p` into `q` (both tiny).
bool MapInto(const Pattern& p, const Pattern& q, int depth,
             std::array<int, Pattern::kMaxVertices>& assignment,
             uint8_t used_mask) {
  if (depth == p.num_vertices()) return true;
  for (int cand = 0; cand < q.num_vertices(); ++cand) {
    if ((used_mask >> cand) & 1u) continue;
    if (p.label(depth) != Pattern::kAnyLabel &&
        p.label(depth) != q.label(cand)) {
      continue;
    }
    bool ok = true;
    for (int j = 0; j < depth && ok; ++j) {
      if (p.HasEdge(depth, j) && !q.HasEdge(cand, assignment[j])) {
        ok = false;
      }
    }
    if (!ok) continue;
    assignment[depth] = cand;
    if (MapInto(p, q, depth + 1, assignment,
                static_cast<uint8_t>(used_mask | (1u << cand)))) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool Pattern::ContainedIn(const Pattern& other) const {
  if (num_vertices() > other.num_vertices()) return false;
  if (num_edges() > other.num_edges()) return false;
  std::array<int, kMaxVertices> assignment{};
  return MapInto(*this, other, 0, assignment, 0);
}

bool Pattern::ConnectedPrefix(const std::vector<int>& order) const {
  for (std::size_t k = 1; k < order.size(); ++k) {
    bool connected = false;
    for (std::size_t j = 0; j < k; ++j) {
      if (HasEdge(order[k], order[j])) connected = true;
    }
    if (!connected) return false;
  }
  return true;
}

std::string Pattern::DebugString() const {
  std::ostringstream os;
  os << "Pattern(n=" << n_ << ", edges={";
  bool first = true;
  for (auto [i, j] : EdgeList()) {
    if (!first) os << ",";
    os << i << "-" << j;
    first = false;
  }
  os << "}";
  if (labeled()) {
    os << ", labels=[";
    for (int i = 0; i < n_; ++i) {
      if (i > 0) os << ",";
      if (labels_[i] == kAnyLabel) {
        os << "*";
      } else {
        os << labels_[i];
      }
    }
    os << "]";
  }
  os << ")";
  return os.str();
}

Pattern Pattern::Triangle() { return Clique(3); }

Pattern Pattern::Clique(int k) {
  Pattern p(k);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) p.AddEdge(i, j);
  }
  return p;
}

Pattern Pattern::Path(int k) {
  Pattern p(k);
  for (int i = 0; i + 1 < k; ++i) p.AddEdge(i, i + 1);
  return p;
}

Pattern Pattern::Cycle(int k) {
  Pattern p = Path(k);
  p.AddEdge(k - 1, 0);
  return p;
}

Pattern Pattern::Star(int k) {
  Pattern p(k + 1);
  for (int i = 1; i <= k; ++i) p.AddEdge(0, i);
  return p;
}

Pattern Pattern::Diamond() {
  Pattern p = Cycle(4);
  p.AddEdge(0, 2);
  return p;
}

Pattern Pattern::TailedTriangle() {
  Pattern p(4);
  p.AddEdge(0, 1);
  p.AddEdge(1, 2);
  p.AddEdge(2, 0);
  p.AddEdge(0, 3);
  return p;
}

namespace {

// Shared hardening for the inline and file pattern forms: validates the
// collected edge and label token lists and assembles the Pattern. Rejects
// self-loops, duplicate edges, id gaps (an id below the maximum that
// appears in no edge), and labels that are not plain non-negative
// integers fitting below the kAnyLabel sentinel.
Result<Pattern> BuildPattern(const std::vector<std::pair<int, int>>& edges,
                             const std::vector<std::string>& labels) {
  if (edges.empty()) {
    return Status::InvalidArgument("pattern needs at least one edge");
  }
  int max_vertex = -1;
  uint8_t seen_vertices = 0;
  uint64_t seen_edges = 0;
  for (auto [a, b] : edges) {
    if (a < 0 || b < 0 || a >= Pattern::kMaxVertices ||
        b >= Pattern::kMaxVertices) {
      return Status::InvalidArgument(
          "pattern vertex out of range in edge (" + std::to_string(a) +
          "," + std::to_string(b) + "); ids must be 0.." +
          std::to_string(Pattern::kMaxVertices - 1));
    }
    if (a == b) {
      return Status::InvalidArgument("pattern has a self-loop at vertex " +
                                     std::to_string(a));
    }
    const int lo = std::min(a, b), hi = std::max(a, b);
    const uint64_t bit = 1ull << (lo * Pattern::kMaxVertices + hi);
    if (seen_edges & bit) {
      return Status::InvalidArgument("duplicate pattern edge (" +
                                     std::to_string(lo) + "," +
                                     std::to_string(hi) + ")");
    }
    seen_edges |= bit;
    seen_vertices |= static_cast<uint8_t>((1u << a) | (1u << b));
    max_vertex = std::max({max_vertex, a, b});
  }
  for (int v = 0; v < max_vertex; ++v) {
    if (!((seen_vertices >> v) & 1u)) {
      return Status::InvalidArgument(
          "pattern vertex ids are not contiguous: vertex " +
          std::to_string(v) + " appears in no edge but vertex " +
          std::to_string(max_vertex) + " does");
    }
  }
  if (!labels.empty() &&
      static_cast<int>(labels.size()) != max_vertex + 1) {
    return Status::InvalidArgument("expected one label per vertex (" +
                                   std::to_string(max_vertex + 1) +
                                   "), got " +
                                   std::to_string(labels.size()));
  }

  Pattern p(max_vertex + 1);
  for (auto [a, b] : edges) p.AddEdge(a, b);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::string& token = labels[i];
    if (token == "*") continue;  // wildcard is the default
    char* end = nullptr;
    errno = 0;
    const long long l = std::strtoll(token.c_str(), &end, 10);
    if (token.empty() || *end != '\0' || errno == ERANGE || l < 0 ||
        l >= static_cast<long long>(Pattern::kAnyLabel)) {
      return Status::InvalidArgument(
          "bad label '" + token +
          "' (want '*' or an integer in [0, 4294967294])");
    }
    p.SetLabel(static_cast<int>(i), static_cast<Label>(l));
  }
  return p;
}

}  // namespace

Result<Pattern> ParsePattern(const std::string& text) {
  std::string edges_part = text;
  std::string labels_part;
  bool has_labels = false;
  if (auto semi = text.find(';'); semi != std::string::npos) {
    edges_part = text.substr(0, semi);
    labels_part = text.substr(semi + 1);
    const std::string prefix = "labels=";
    if (labels_part.rfind(prefix, 0) != 0) {
      return Status::InvalidArgument("expected ';labels=...', got '" +
                                     labels_part + "'");
    }
    labels_part = labels_part.substr(prefix.size());
    has_labels = true;
  }

  // Parse edges "a-b,c-d,...".
  std::vector<std::pair<int, int>> edges;
  std::istringstream es(edges_part);
  std::string token;
  while (std::getline(es, token, ',')) {
    auto dash = token.find('-');
    if (dash == std::string::npos || dash == 0) {
      return Status::InvalidArgument("bad edge token '" + token + "'");
    }
    char* end = nullptr;
    long a = std::strtol(token.c_str(), &end, 10);
    if (end != token.c_str() + dash) {
      return Status::InvalidArgument("bad vertex in '" + token + "'");
    }
    long b = std::strtol(token.c_str() + dash + 1, &end, 10);
    if (end == token.c_str() + dash + 1 || *end != '\0') {
      return Status::InvalidArgument("bad vertex in '" + token + "'");
    }
    if (a < 0 || b < 0 || a > Pattern::kMaxVertices ||
        b > Pattern::kMaxVertices) {
      return Status::InvalidArgument("vertex out of range in '" + token +
                                     "'");
    }
    edges.emplace_back(static_cast<int>(a), static_cast<int>(b));
  }

  std::vector<std::string> labels;
  if (has_labels) {
    std::istringstream ls(labels_part);
    while (std::getline(ls, token, ',')) labels.push_back(token);
    if (labels.empty()) {
      return Status::InvalidArgument("';labels=' lists no labels");
    }
  }
  return BuildPattern(edges, labels);
}

Result<Pattern> ParsePatternFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::InvalidArgument("cannot open " + path);
  std::vector<std::pair<int, int>> edges;
  std::vector<std::string> labels;
  bool has_labels = false;
  std::string line;
  while (std::getline(in, line)) {
    if (auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;
    if (first == "labels") {
      if (has_labels) {
        return Status::InvalidArgument(
            "pattern file has more than one labels line");
      }
      has_labels = true;
      std::string l;
      while (tokens >> l) labels.push_back(l);
      if (labels.empty()) {
        return Status::InvalidArgument("labels line lists no labels");
      }
      continue;
    }
    // Strictly-integer endpoints: atoi-style silent truncation would turn
    // a typo like '1O' into vertex 1.
    auto parse_vertex = [](const std::string& tok, int* out) {
      char* end = nullptr;
      errno = 0;
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (tok.empty() || *end != '\0' || errno == ERANGE || v < 0 ||
          v > Pattern::kMaxVertices) {
        return false;
      }
      *out = static_cast<int>(v);
      return true;
    };
    int u = 0, v = 0;
    std::string second, extra;
    if (!(tokens >> second)) {
      return Status::InvalidArgument("bad pattern line: " + line);
    }
    if (tokens >> extra) {
      return Status::InvalidArgument("trailing tokens on pattern line: " +
                                     line);
    }
    if (!parse_vertex(first, &u) || !parse_vertex(second, &v)) {
      return Status::InvalidArgument("bad pattern edge: " + line);
    }
    edges.emplace_back(u, v);
  }
  return BuildPattern(edges, labels);
}

Pattern Pattern::SmQuery(int which, uint32_t num_labels) {
  auto lbl = [num_labels](uint32_t i) { return i % num_labels; };
  switch (which) {
    case 1: {
      Pattern p = Triangle();
      p.SetLabel(0, lbl(0));
      p.SetLabel(1, lbl(1));
      p.SetLabel(2, lbl(2));
      return p;
    }
    case 2: {
      Pattern p = TailedTriangle();
      p.SetLabel(0, lbl(0));
      p.SetLabel(1, lbl(1));
      p.SetLabel(2, lbl(0));
      p.SetLabel(3, lbl(2));
      return p;
    }
    case 3: {
      Pattern p = Diamond();
      p.SetLabel(0, lbl(0));
      p.SetLabel(1, lbl(1));
      p.SetLabel(2, lbl(1));
      p.SetLabel(3, lbl(2));
      return p;
    }
    default:
      GAMMA_LOG(Fatal) << "unknown SM query " << which;
  }
  return Pattern(1);
}

}  // namespace gpm::graph
