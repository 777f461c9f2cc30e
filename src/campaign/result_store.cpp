#include "campaign/result_store.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "core/atomic_file.h"
#include "core/errors.h"

namespace uvmsim::campaign {

namespace fs = std::filesystem;

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_ + "/results", ec);
  if (ec) {
    throw IoError("cannot create result store '" + dir_ +
                  "': " + ec.message());
  }
  // Scratch from a previous (possibly killed) session is garbage by
  // definition — attempts in flight at the kill have no journal record and
  // will rerun from scratch.
  fs::remove_all(dir_ + "/tmp", ec);
  fs::create_directories(dir_ + "/tmp", ec);
  if (ec) {
    throw IoError("cannot create scratch dir under '" + dir_ +
                  "': " + ec.message());
  }
}

std::string ResultStore::journal_path() const { return dir_ + "/journal.log"; }

std::string ResultStore::result_path(const std::string& id) const {
  return dir_ + "/results/" + id + ".result";
}

std::string ResultStore::tmp_dir() const { return dir_ + "/tmp"; }

bool ResultStore::has(const std::string& id) const {
  std::error_code ec;
  return fs::exists(result_path(id), ec);
}

void ResultStore::put(const std::string& id,
                      const std::string& contents) const {
  atomic_write_file(result_path(id), contents);
}

void ResultStore::write_top_level(const std::string& name,
                                  const std::string& contents) const {
  atomic_write_file(dir_ + "/" + name, contents);
}

}  // namespace uvmsim::campaign
