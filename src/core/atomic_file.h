// Atomic whole-file replacement: write to a temp file in the target's
// directory, flush + fsync it, then rename() over the target. A reader (or
// a process killed at any instant — even SIGKILL between any two syscalls)
// observes either the complete old contents or the complete new contents,
// never a torn mix and never a zero-length truncation.
//
// Used by everything that persists campaign state (checkpoint journal
// snapshots, result-store files, manifests), by the Chrome trace exporter,
// and by the CLI's trace capture — any file whose partial write would
// corrupt downstream tooling.
//
// A process-wide test hook can be installed to model a crash inside the
// write→rename window: the hook runs after the temp file is durable but
// before the rename, so a test can throw there and assert the target is
// untouched and the temp file cleaned up.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace uvmsim {

/// Atomically replaces `path` with `contents`. Throws IoError on any
/// filesystem failure; on failure the target file is left exactly as it
/// was and the temp file is removed.
void atomic_write_file(const std::string& path, std::string_view contents);

/// Streaming form: `writer` renders into an in-memory stream, then the
/// rendered bytes are committed atomically. Exceptions from `writer`
/// propagate without touching the target.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Test hook invoked between the durable temp write and the rename; throw
/// from it to simulate a crash in the commit window. Returns the previous
/// hook. Pass nullptr to clear. (Process-wide; tests install and restore.)
/// Test seam: the AtomicFileTest crash-window cases.
using AtomicWriteHook = void (*)(const std::string& tmp_path);
AtomicWriteHook set_atomic_write_test_hook(AtomicWriteHook hook);

}  // namespace uvmsim
