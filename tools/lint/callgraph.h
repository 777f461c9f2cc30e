// Whole-program call graph over the per-TU indexes.
//
// Nodes are every IndexedSymbol of every file, flattened. Edges come from
// CallSite resolution: an exact qualified-name match wins; otherwise the
// callee's last name component is matched against every symbol's last
// component (qualified call spellings additionally require a whole-component
// suffix match). Lambdas are linked by direct index, so same-named lambdas
// in different files never cross-connect. Resolution over-approximates by
// design — see index.h.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "index.h"

namespace uvmsim::lint {

class CallGraph {
 public:
  /// `files` must outlive the graph.
  explicit CallGraph(const std::vector<FileIndex>& files);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int file_of(int node) const { return nodes_[node].file; }
  [[nodiscard]] const IndexedSymbol& symbol(int node) const;
  /// Display path of the file defining `node`.
  [[nodiscard]] const std::string& path_of(int node) const;
  /// Flat node id for files_[file].symbols[sym].
  [[nodiscard]] int node_id(int file, int sym) const;
  [[nodiscard]] const std::vector<int>& callees(int node) const {
    return adj_[static_cast<std::size_t>(node)];
  }

  /// Nearest enclosing non-lambda symbol (the node itself when it is not a
  /// lambda). -1 only for malformed parent chains.
  [[nodiscard]] int named_ancestor(int node) const;

  /// Nodes for `name` as spelled at a call site in `file`;
  /// `local_target` >= 0 short-circuits to that same-file symbol.
  [[nodiscard]] std::vector<int> resolve(const std::string& name, int file,
                                         int local_target) const;

  struct Reach {
    std::vector<int> dist;         ///< -1 = unreachable
    std::vector<int> parent;       ///< predecessor node on a shortest chain
    std::vector<int> parent_line;  ///< call line in the predecessor's body
  };

  /// BFS from `roots` (dist 0) along call edges.
  [[nodiscard]] Reach reachable_from(const std::vector<int>& roots) const;

  [[nodiscard]] std::vector<int> hot_roots() const;

  /// reaches_io()[n] != 0 when n (or anything it can call) has an I/O site.
  [[nodiscard]] std::vector<char> reaches_io() const;

  /// "root → ... → node" using non-lambda display names.
  [[nodiscard]] std::string chain_string(const Reach& r, int node) const;

 private:
  struct NodeRef {
    int file;
    int sym;
  };
  const std::vector<FileIndex>& files_;
  std::vector<NodeRef> nodes_;
  std::vector<std::size_t> offset_;          ///< per-file base node id
  std::vector<std::vector<int>> adj_;
  std::vector<std::vector<int>> radj_;
};

}  // namespace uvmsim::lint
