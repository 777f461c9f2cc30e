#include "callgraph.h"

#include <deque>
#include <map>
#include <set>

namespace uvmsim::lint {

namespace {

std::string last_component(const std::string& qualified) {
  const std::size_t pos = qualified.rfind("::");
  return pos == std::string::npos ? qualified : qualified.substr(pos + 2);
}

/// True when `name` equals `spelled` or ends with "::" + spelled — i.e. the
/// call's qualification is a whole-component suffix of the definition.
bool suffix_match(const std::string& name, const std::string& spelled) {
  if (name == spelled) return true;
  if (name.size() <= spelled.size() + 2) return false;
  const std::size_t at = name.size() - spelled.size();
  return name.compare(at, spelled.size(), spelled) == 0 &&
         name.compare(at - 2, 2, "::") == 0;
}

}  // namespace

CallGraph::CallGraph(const std::vector<FileIndex>& files) : files_(files) {
  offset_.reserve(files.size());
  std::size_t total = 0;
  for (const FileIndex& fi : files) {
    offset_.push_back(total);
    total += fi.symbols.size();
  }
  nodes_.reserve(total);
  for (std::size_t f = 0; f < files.size(); ++f) {
    for (std::size_t s = 0; s < files[f].symbols.size(); ++s) {
      nodes_.push_back({static_cast<int>(f), static_cast<int>(s)});
    }
  }

  // Name tables. Lambdas are excluded — they are only reachable through
  // their direct local_target edge.
  std::map<std::string, std::vector<int>> by_name;
  std::map<std::string, std::vector<int>> by_last;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const IndexedSymbol& sym = symbol(static_cast<int>(n));
    if (sym.is_lambda) continue;
    by_name[sym.name].push_back(static_cast<int>(n));
    by_last[last_component(sym.name)].push_back(static_cast<int>(n));
  }

  adj_.assign(nodes_.size(), {});
  radj_.assign(nodes_.size(), {});
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const NodeRef& ref = nodes_[n];
    const IndexedSymbol& sym = files_[ref.file].symbols[ref.sym];
    std::set<int> targets;
    for (const CallSite& c : sym.calls) {
      if (c.local_target >= 0) {
        targets.insert(node_id(ref.file, c.local_target));
        continue;
      }
      auto exact = by_name.find(c.name);
      if (exact != by_name.end()) {
        targets.insert(exact->second.begin(), exact->second.end());
        continue;
      }
      auto loose = by_last.find(last_component(c.name));
      if (loose == by_last.end()) continue;
      for (int cand : loose->second) {
        if (c.name.find("::") == std::string::npos ||
            suffix_match(symbol(cand).name, c.name)) {
          targets.insert(cand);
        }
      }
    }
    targets.erase(static_cast<int>(n));  // direct recursion adds nothing
    for (int to : targets) {
      adj_[n].push_back(to);
      radj_[static_cast<std::size_t>(to)].push_back(static_cast<int>(n));
    }
  }
}

const IndexedSymbol& CallGraph::symbol(int node) const {
  const NodeRef& ref = nodes_[static_cast<std::size_t>(node)];
  return files_[ref.file].symbols[static_cast<std::size_t>(ref.sym)];
}

const std::string& CallGraph::path_of(int node) const {
  return files_[nodes_[static_cast<std::size_t>(node)].file].path;
}

int CallGraph::node_id(int file, int sym) const {
  return static_cast<int>(offset_[static_cast<std::size_t>(file)]) + sym;
}

int CallGraph::named_ancestor(int node) const {
  int cur = node;
  for (int hops = 0; cur >= 0 && hops < 64; ++hops) {
    const NodeRef& ref = nodes_[static_cast<std::size_t>(cur)];
    const IndexedSymbol& sym = files_[ref.file].symbols[ref.sym];
    if (!sym.is_lambda) return cur;
    if (sym.parent < 0) return cur;
    cur = node_id(ref.file, sym.parent);
  }
  return cur;
}

std::vector<int> CallGraph::resolve(const std::string& name, int file,
                                    int local_target) const {
  if (local_target >= 0) return {node_id(file, local_target)};
  std::vector<int> out;
  const std::string base = last_component(name);
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const IndexedSymbol& sym = symbol(static_cast<int>(n));
    if (sym.is_lambda) continue;
    if (sym.name == name ||
        (last_component(sym.name) == base &&
         (name.find("::") == std::string::npos ||
          suffix_match(sym.name, name)))) {
      out.push_back(static_cast<int>(n));
    }
  }
  return out;
}

CallGraph::Reach CallGraph::reachable_from(
    const std::vector<int>& roots) const {
  Reach r;
  r.dist.assign(nodes_.size(), -1);
  r.parent.assign(nodes_.size(), -1);
  r.parent_line.assign(nodes_.size(), 0);
  std::deque<int> queue;
  for (int root : roots) {
    if (root < 0 || static_cast<std::size_t>(root) >= nodes_.size()) continue;
    if (r.dist[static_cast<std::size_t>(root)] == 0) continue;
    r.dist[static_cast<std::size_t>(root)] = 0;
    queue.push_back(root);
  }
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (int to : adj_[static_cast<std::size_t>(n)]) {
      auto& d = r.dist[static_cast<std::size_t>(to)];
      if (d >= 0) continue;
      d = r.dist[static_cast<std::size_t>(n)] + 1;
      r.parent[static_cast<std::size_t>(to)] = n;
      // Line of the call edge actually used, for chain reporting.
      const IndexedSymbol& from = symbol(n);
      for (const CallSite& c : from.calls) {
        const std::vector<int> t =
            resolve(c.name, nodes_[static_cast<std::size_t>(n)].file,
                    c.local_target);
        bool hit = false;
        for (int cand : t) {
          if (cand == to) {
            hit = true;
            break;
          }
        }
        if (hit) {
          r.parent_line[static_cast<std::size_t>(to)] = c.line;
          break;
        }
      }
      queue.push_back(to);
    }
  }
  return r;
}

std::vector<int> CallGraph::hot_roots() const {
  std::vector<int> out;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (symbol(static_cast<int>(n)).is_hot) out.push_back(static_cast<int>(n));
  }
  return out;
}

std::vector<char> CallGraph::reaches_io() const {
  std::vector<char> tainted(nodes_.size(), 0);
  std::deque<int> queue;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    if (!symbol(static_cast<int>(n)).io_sites.empty()) {
      tainted[n] = 1;
      queue.push_back(static_cast<int>(n));
    }
  }
  while (!queue.empty()) {
    const int n = queue.front();
    queue.pop_front();
    for (int from : radj_[static_cast<std::size_t>(n)]) {
      if (tainted[static_cast<std::size_t>(from)]) continue;
      tainted[static_cast<std::size_t>(from)] = 1;
      queue.push_back(from);
    }
  }
  return tainted;
}

std::string CallGraph::chain_string(const Reach& r, int node) const {
  std::vector<int> path;
  for (int cur = node; cur >= 0; cur = r.parent[static_cast<std::size_t>(cur)]) {
    path.push_back(cur);
    if (path.size() > 64) break;  // cycle guard
  }
  std::string out;
  for (std::size_t i = path.size(); i-- > 0;) {
    const int anc = named_ancestor(path[i]);
    const std::string& name = symbol(anc < 0 ? path[i] : anc).name;
    if (!out.empty() && out.size() >= name.size() &&
        out.compare(out.size() - name.size(), name.size(), name) == 0) {
      continue;  // lambda hop collapsed into its enclosing function
    }
    if (!out.empty()) out += " -> ";
    out += name;
  }
  return out;
}

}  // namespace uvmsim::lint
