// uvmsim_lint — in-tree static analyzer enforcing the repository's
// determinism, hot-path-allocation, concurrency, and hygiene invariants.
//
//   uvmsim_lint [--json] [--root DIR] [paths...]   lint files/directories
//   uvmsim_lint --project [paths...]               whole-program pass
//   uvmsim_lint --list-rules [--json]              print the rule table
//
// Project mode adds the call-graph/dataflow rules (hot-transitive-*,
// lane-capture-escape, unordered-sink-iteration),
// supports an on-disk index cache (--cache-dir), SARIF output (--sarif),
// and a findings baseline (--baseline / --write-baseline) so CI fails only
// on new findings.
//
// Exit codes: 0 clean, 1 findings, 2 usage or I/O error. With no paths the
// default scan set is `src bench tools` relative to --root (default ".").
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyzer.h"
#include "baseline.h"
#include "rules.h"
#include "sarif.h"

namespace {

void print_usage(std::ostream& os) {
  os << "usage: uvmsim_lint [--json] [--root DIR] [--project]\n"
        "                   [--cache-dir DIR] [--sarif FILE]\n"
        "                   [--baseline FILE] [--write-baseline FILE]\n"
        "                   [paths...]\n"
        "       uvmsim_lint --list-rules [--json]\n"
        "\n"
        "Lints *.h/*.cpp under the given files/directories (default: src\n"
        "bench tools). Findings go to stdout; exit 1 when any are found.\n"
        "--project enables the whole-program rules; with --baseline only\n"
        "findings absent from the baseline fail the run.\n"
        "Suppress a finding with a mandatory justification:\n"
        "  // uvmsim-lint: allow(<rule-id>, \"why this is safe\")\n"
        "or cover a whole function from the line before its signature:\n"
        "  // uvmsim-lint: suppress(<rule-id>) why this is safe\n";
}

void list_rules(bool json) {
  using uvmsim::lint::all_rules;
  if (json) {
    std::cout << "{\"version\":1,\"rules\":[";
    bool first = true;
    for (const auto& r : all_rules()) {
      if (!first) std::cout << ",";
      first = false;
      std::cout << "{\"id\":\"" << r.id << "\",\"category\":\"" << r.category
                << "\",\"summary\":\"" << r.summary << "\"}";
    }
    std::cout << "]}\n";
    return;
  }
  for (const auto& r : all_rules()) {
    std::cout << r.id << "  [" << r.category << "]\n    " << r.summary
              << "\n";
  }
}

void print_text(const std::vector<uvmsim::lint::Finding>& findings) {
  for (const auto& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.category << "/"
              << f.rule << "] " << f.message << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool rules_only = false;
  uvmsim::lint::LintOptions opts;
  std::string sarif_path;
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> paths;

  auto need_value = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "uvmsim_lint: " << flag << " requires an argument\n";
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--list-rules") {
      rules_only = true;
    } else if (arg == "--project") {
      opts.project = true;
    } else if (arg == "--root") {
      const char* v = need_value(i, "--root");
      if (v == nullptr) return 2;
      opts.root = v;
    } else if (arg == "--cache-dir") {
      const char* v = need_value(i, "--cache-dir");
      if (v == nullptr) return 2;
      opts.cache_dir = v;
    } else if (arg == "--sarif") {
      const char* v = need_value(i, "--sarif");
      if (v == nullptr) return 2;
      sarif_path = v;
    } else if (arg == "--baseline") {
      const char* v = need_value(i, "--baseline");
      if (v == nullptr) return 2;
      baseline_path = v;
    } else if (arg == "--write-baseline") {
      const char* v = need_value(i, "--write-baseline");
      if (v == nullptr) return 2;
      write_baseline_path = v;
    } else if (arg == "-h" || arg == "--help") {
      print_usage(std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "uvmsim_lint: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }

  if (rules_only) {
    list_rules(json);
    return 0;
  }

  if (paths.empty()) {
    paths = {opts.root + "/src", opts.root + "/bench", opts.root + "/tools"};
  }

  uvmsim::lint::Linter linter(opts);
  for (const std::string& p : paths) {
    if (!linter.add_path(p)) {
      std::cerr << "uvmsim_lint: cannot read '" << p << "'\n";
      return 2;
    }
  }

  std::vector<uvmsim::lint::Finding> findings = linter.run();

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::trunc);
    if (!out) {
      std::cerr << "uvmsim_lint: cannot write '" << sarif_path << "'\n";
      return 2;
    }
    uvmsim::lint::write_sarif(out, findings);
  }
  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::trunc);
    if (!out) {
      std::cerr << "uvmsim_lint: cannot write '" << write_baseline_path
                << "'\n";
      return 2;
    }
    uvmsim::lint::write_baseline(out, findings);
    std::cerr << "uvmsim_lint: wrote baseline with " << findings.size()
              << " finding(s) to " << write_baseline_path << "\n";
  }

  std::size_t accepted = 0;
  if (!baseline_path.empty()) {
    std::vector<uvmsim::lint::BaselineEntry> entries;
    std::string error;
    if (!uvmsim::lint::read_baseline(baseline_path, entries, error)) {
      std::cerr << "uvmsim_lint: " << error << "\n";
      return 2;
    }
    std::vector<uvmsim::lint::Finding> fresh;
    std::vector<uvmsim::lint::Finding> known;
    std::vector<std::string> stale;
    uvmsim::lint::apply_baseline(findings, entries, fresh, known, stale);
    accepted = known.size();
    for (const std::string& id : stale) {
      std::cerr << "uvmsim_lint: note: stale baseline entry '" << id
                << "' matched no finding (fixed? remove it)\n";
    }
    findings = std::move(fresh);
  }

  if (json) {
    uvmsim::lint::write_findings_json(std::cout, findings);
  } else {
    print_text(findings);
    std::string tail = findings.empty()
                           ? "uvmsim_lint: clean"
                           : "uvmsim_lint: " +
                                 std::to_string(findings.size()) +
                                 " finding(s)";
    if (accepted > 0) {
      tail += " (" + std::to_string(accepted) + " baselined)";
    }
    const auto cache = linter.cache_report();
    if (cache.hits + cache.misses > 0 && !opts.cache_dir.empty()) {
      tail += " [index cache: " + std::to_string(cache.hits) + " hit, " +
              std::to_string(cache.misses) + " miss]";
    }
    std::cout << tail << "\n";
  }
  return findings.empty() ? 0 : 1;
}
