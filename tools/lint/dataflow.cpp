#include "dataflow.h"

#include <algorithm>
#include <utility>

namespace uvmsim::lint {

namespace {

struct RulePass {
  const std::vector<FileIndex>& files;
  const CallGraph& graph;
  std::vector<ProjectFinding> out;

  void add(int node, int line, const std::string& rule, std::string message) {
    const int anc = graph.named_ancestor(node);
    out.push_back({graph.file_of(node), line, rule, std::move(message),
                   graph.symbol(anc < 0 ? node : anc).name});
  }

  // -------------------------------------------------------------------------
  // Reachability rules: facts anywhere below a UVMSIM_HOT root.
  // -------------------------------------------------------------------------
  void hot_transitive() {
    const CallGraph::Reach r = graph.reachable_from(graph.hot_roots());
    struct Family {
      const char* rule;
      std::vector<FactSite> IndexedSymbol::*sites;
      const char* noun;
    };
    const Family families[] = {
        {"hot-transitive-alloc", &IndexedSymbol::alloc_sites,
         "heap allocation"},
        {"hot-transitive-io", &IndexedSymbol::io_sites, "I/O"},
        {"hot-transitive-clock", &IndexedSymbol::clock_sites,
         "wall-clock read"},
        {"hot-transitive-random", &IndexedSymbol::rng_sites,
         "nondeterministic RNG"},
    };
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
      const int node = static_cast<int>(n);
      // dist >= 1: sites directly inside a hot body are already covered by
      // the per-file hot-alloc / banned-* rules; this pass reports what
      // those rules cannot see. A lambda defined inside the hot body itself
      // counts as the hot body (its chain collapses to the root), so it is
      // also left to the per-file pass.
      if (r.dist[n] < 1) continue;
      const IndexedSymbol& sym = graph.symbol(node);
      if (sym.is_lambda && r.dist[n] == 1 &&
          r.parent[n] == graph.named_ancestor(node)) {
        continue;
      }
      const std::string chain = graph.chain_string(r, node);
      for (const Family& fam : families) {
        std::string last;
        for (const FactSite& site : sym.*(fam.sites)) {
          if (site.what == last) continue;  // one finding per distinct id
          last = site.what;
          add(node, site.line, fam.rule,
              std::string(fam.noun) + " ('" + site.what +
                  "') reachable from a UVMSIM_HOT entry via " + chain);
        }
      }
    }
  }

  // -------------------------------------------------------------------------
  // lane-capture-escape: shared state mutated inside a parallel_for body.
  // -------------------------------------------------------------------------
  void lane_capture_escape(const std::set<std::string>& atomics) {
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
      const IndexedSymbol& sym = graph.symbol(static_cast<int>(n));
      if (!sym.is_lambda || sym.lane_role != LaneRole::ParallelFor) continue;
      const std::set<std::string> locals(sym.locals.begin(),
                                         sym.locals.end());
      const std::set<std::string> refs(sym.ref_captures.begin(),
                                       sym.ref_captures.end());
      for (const LaneWrite& w : sym.lane_writes) {
        if (locals.count(w.target)) continue;
        const bool member = w.target.size() > 1 && w.target.back() == '_';
        const bool captured =
            member || refs.count(w.target) > 0 || sym.default_ref_capture;
        if (!captured) continue;
        if (w.lane_indexed) continue;          // indexed by a body-local
        if (atomics.count(w.target)) continue;  // std::atomic
        add(static_cast<int>(n), w.line, "lane-capture-escape",
            "'" + w.target +
                "' is captured shared state mutated inside a parallel_for "
                "body; index it by a body-local or make it std::atomic");
      }
    }
  }

  // -------------------------------------------------------------------------
  // unordered-sink-iteration: unordered iteration that can reach output.
  // -------------------------------------------------------------------------
  void unordered_sink(
      const std::vector<std::set<std::string>>& unordered_names) {
    const std::vector<char> io = graph.reaches_io();
    for (std::size_t f = 0; f < files.size(); ++f) {
      const std::set<std::string>& unordered = unordered_names[f];
      if (unordered.empty()) continue;
      for (const UnorderedLoop& loop : files[f].loops) {
        std::string container;
        for (const std::string& c : loop.containers) {
          if (unordered.count(c)) {
            container = c;
            break;
          }
        }
        if (container.empty()) continue;
        std::string sink;
        if (loop.direct_io) sink = "prints directly";
        for (const CallSite& c : loop.body_calls) {
          if (!sink.empty()) break;
          for (int cand :
               graph.resolve(c.name, static_cast<int>(f), c.local_target)) {
            if (io[static_cast<std::size_t>(cand)]) {
              sink = "calls '" + c.name + "', which can reach I/O";
              break;
            }
          }
        }
        if (sink.empty()) continue;
        const int node = loop.symbol >= 0
                             ? graph.node_id(static_cast<int>(f), loop.symbol)
                             : -1;
        ProjectFinding pf;
        pf.file = static_cast<int>(f);
        pf.line = loop.line;
        pf.rule = "unordered-sink-iteration";
        pf.message =
            "range-for over unordered container '" + container +
            "' whose body " + sink +
            "; hash order would leak into output — iterate a sorted copy "
            "or stable keys";
        if (node >= 0) {
          const int anc = graph.named_ancestor(node);
          pf.symbol = graph.symbol(anc < 0 ? node : anc).name;
        }
        out.push_back(std::move(pf));
      }
    }
  }
};

}  // namespace

std::vector<ProjectFinding> run_project_rules(
    const std::vector<FileIndex>& files, const CallGraph& graph,
    const std::vector<std::set<std::string>>& unordered_names) {
  // The std::atomic escape hatch is whole-program: a name declared atomic
  // in a header covers uses in every TU.
  std::set<std::string> atomics;
  for (const FileIndex& fi : files) {
    atomics.insert(fi.atomic_names.begin(), fi.atomic_names.end());
  }

  RulePass pass{files, graph, {}};
  pass.hot_transitive();
  pass.lane_capture_escape(atomics);
  pass.unordered_sink(unordered_names);

  std::sort(pass.out.begin(), pass.out.end(),
            [](const ProjectFinding& a, const ProjectFinding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  pass.out.erase(
      std::unique(pass.out.begin(), pass.out.end(),
                  [](const ProjectFinding& a, const ProjectFinding& b) {
                    return a.file == b.file && a.line == b.line &&
                           a.rule == b.rule && a.message == b.message;
                  }),
      pass.out.end());
  return pass.out;
}

}  // namespace uvmsim::lint
