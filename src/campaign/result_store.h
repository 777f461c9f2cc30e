// Content-addressed result store.
//
// Layout under the store directory:
//   results/<id>.result   one file per unique request, named by the
//                         request's content hash; written atomically
//   journal.log           the checkpoint journal (see journal.h)
//   MANIFEST.tsv          queue-ordered index, written at campaign end
//   failures.tsv          quarantine report, written at campaign end
//   tmp/                  per-attempt scratch (child stdout); wiped on open
//
// Because results are keyed by content hash and every run is deterministic,
// a result file is valid the moment it exists — even if the journal lost
// its `done` record to a crash, an existing result is simply trusted and
// counted as a cache hit. This is also what makes identical requests free:
// the second occurrence resolves to the same address.
#pragma once

#include <string>
#include <vector>

namespace uvmsim::campaign {

class ResultStore {
 public:
  /// Opens (creating if needed) the store rooted at `dir`; wipes tmp/.
  /// Throws IoError when directories cannot be created.
  explicit ResultStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::string journal_path() const;
  [[nodiscard]] std::string result_path(const std::string& id) const;
  [[nodiscard]] std::string tmp_dir() const;

  [[nodiscard]] bool has(const std::string& id) const;
  /// Atomically commits one result (temp + fsync + rename).
  void put(const std::string& id, const std::string& contents) const;

  /// Atomically (re)writes a top-level store file (MANIFEST.tsv etc.).
  void write_top_level(const std::string& name,
                       const std::string& contents) const;

 private:
  std::string dir_;
};

}  // namespace uvmsim::campaign
