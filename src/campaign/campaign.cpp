#include "campaign/campaign.h"

#include <chrono>
#include <map>
#include <sstream>
#include <thread>
#include <utility>

#include "campaign/executor.h"
#include "campaign/journal.h"
#include "campaign/result_store.h"
#include "campaign/worker.h"
#include "core/errors.h"

namespace uvmsim::campaign {

namespace {

/// One unique request with its content address and terminal state.
struct Entry {
  std::string id;
  std::uint64_t hash = 0;
  RunRequest request;
  bool done = false;
  bool quarantined = false;
};

void check_rate(double rate, const char* param) {
  if (!(rate >= 0.0) || rate >= 1.0) {
    throw ConfigError(param, "must be in [0, 1)");
  }
}

std::string quarantine_line(const std::string& id, FailureKind kind,
                            std::uint32_t attempts,
                            const std::string& detail) {
  return id + "\t" + to_string(kind) + "\t" + std::to_string(attempts) +
         "\t" + detail;
}

}  // namespace

Campaign::Campaign(CampaignConfig cfg, std::vector<RunRequest> queue)
    : cfg_(std::move(cfg)), queue_(std::move(queue)) {
  if (cfg_.store_dir.empty()) {
    throw ConfigError("CampaignConfig.store_dir", "must not be empty");
  }
  if (cfg_.process_isolation && cfg_.cli_path.empty()) {
    throw ConfigError("CampaignConfig.cli_path",
                      "process isolation needs the uvmsim_cli binary path");
  }
  if (cfg_.retry.max_attempts == 0) {
    throw ConfigError("RetryPolicy.max_attempts", "must be >= 1");
  }
  const CampaignHazardConfig& h = cfg_.hazards;
  check_rate(h.worker_crash_rate, "CampaignHazardConfig.worker_crash_rate");
  check_rate(h.worker_hang_rate, "CampaignHazardConfig.worker_hang_rate");
  check_rate(h.journal_truncate_rate,
             "CampaignHazardConfig.journal_truncate_rate");
  if (h.worker_crash_rate + h.worker_hang_rate >= 1.0) {
    throw ConfigError(
        "CampaignHazardConfig.worker_crash_rate",
        "crash + hang rates must sum below 1 so an attempt can succeed "
        "(use a request's sabotage field for an always-failing run)");
  }
}

CampaignReport Campaign::run() {
  ResultStore store(cfg_.store_dir);
  Journal journal(store.journal_path());
  const JournalState js = journal.recover();
  const CampaignHazardInjector injector(cfg_.hazards);

  CampaignReport report;
  report.queued = queue_.size();
  report.journal_damaged_lines = js.damaged_lines;

  // Dedupe the queue through the content address, preserving first-seen
  // order (which is what makes every downstream loop deterministic).
  std::vector<Entry> entries;
  std::map<std::string, std::size_t> by_id;
  for (RunRequest& req : queue_) {
    load_trace_content(req);
    Entry e;
    e.hash = request_hash(req);
    e.id = request_id(req);
    if (by_id.count(e.id) != 0) continue;
    by_id[e.id] = entries.size();
    e.request = req;
    entries.push_back(std::move(e));
  }
  report.unique = entries.size();
  report.deduped = report.queued - report.unique;

  RunLedger ledger(cfg_.retry);
  for (const auto& [id, attempts] : js.attempts) {
    ledger.seed_attempts(id, attempts);
  }

  std::map<std::string, std::string> quarantine_by_id;
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    Entry& e = entries[i];
    const auto qit = js.quarantined.find(e.id);
    if (qit != js.quarantined.end()) {
      e.quarantined = true;
      quarantine_by_id[e.id] =
          quarantine_line(e.id, qit->second.failure, qit->second.attempt,
                          qit->second.detail);
      continue;
    }
    // An existing result is trustworthy even without a journal record:
    // it is content-addressed, atomically written, and deterministic.
    if (store.has(e.id)) {
      e.done = true;
      ++report.cached;
      continue;
    }
    pending.push_back(i);
  }

  TaskExecutor exec(cfg_.workers == 0 ? default_workers() : cfg_.workers);
  const InProcessWorker thread_worker;
  const ProcessWorker process_worker(cfg_.cli_path, cfg_.run_timeout_ms);

  auto journal_append = [&](const JournalRecord& rec, std::uint64_t hash) {
    if (injector.journal_truncation(hash, journal.session_records())) {
      journal.tear_next_append();
    }
    journal.append(rec);
  };

  while (!pending.empty()) {
    struct Slot {
      std::size_t entry;
      std::uint32_t attempt;
      WorkerSabotage sabotage;
    };
    std::vector<Slot> slots;
    slots.reserve(pending.size());
    for (const std::size_t ei : pending) {
      Slot s;
      s.entry = ei;
      s.attempt = ledger.next_attempt(entries[ei].id);
      s.sabotage = entries[ei].request.sabotage != WorkerSabotage::None
                       ? entries[ei].request.sabotage
                       : injector.worker_sabotage(entries[ei].hash, s.attempt);
      slots.push_back(s);
    }
    std::vector<std::size_t> next;

    exec.map_each(
        slots.size(),
        [&](std::size_t i) -> RunOutcome {
          const Slot& s = slots[i];
          const Entry& e = entries[s.entry];
          // Deterministic exponential backoff before a retry attempt.
          const std::uint32_t backoff =
              cfg_.retry.backoff_ms(s.attempt);
          if (backoff > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
          }
          if (cfg_.process_isolation) {
            const std::string tag =
                e.id + ".a" + std::to_string(s.attempt);
            return process_worker.run(e.request, store.tmp_dir(), tag,
                                      s.sabotage);
          }
          return thread_worker.run(e.request, s.sabotage);
        },
        [&](std::size_t i, TaskOutcome<RunOutcome> out) {
          // Runs on the campaign thread, in slot order: commits checkpoint
          // incrementally and keeps journal order deterministic.
          const Slot& s = slots[i];
          Entry& e = entries[s.entry];
          RunOutcome o;
          if (out.ok()) {
            o = std::move(*out.value);
          } else {
            // The worker itself threw: the executor classified the escaped
            // exception (Config / Simulation / Io / Crash), so retry and
            // quarantine policy sees the real failure class instead of a
            // blanket "environment problem".
            o.failure = out.kind == FailureKind::None ? FailureKind::Crash
                                                      : out.kind;
            o.detail = out.error;
          }
          ++report.executed;
          const Decision d = ledger.on_outcome(e.id, o.failure);
          JournalRecord rec;
          rec.id = e.id;
          switch (d.action) {
            case Decision::Action::Commit:
              store.put(e.id, o.result);
              rec.kind = JournalRecord::Kind::Done;
              journal_append(rec, e.hash);
              e.done = true;
              break;
            case Decision::Action::Retry:
              rec.kind = JournalRecord::Kind::Fail;
              rec.attempt = d.attempt;
              rec.failure = o.failure;
              rec.detail = o.detail;
              journal_append(rec, e.hash);
              ++report.retried;
              next.push_back(s.entry);
              break;
            case Decision::Action::Quarantine:
              rec.kind = JournalRecord::Kind::Quarantine;
              rec.attempt = d.attempt;
              rec.failure = o.failure;
              rec.detail = o.detail;
              journal_append(rec, e.hash);
              e.quarantined = true;
              quarantine_by_id[e.id] =
                  quarantine_line(e.id, o.failure, d.attempt, o.detail);
              break;
          }
        });
    pending = std::move(next);
  }

  for (const Entry& e : entries) {
    if (e.done) ++report.completed;
  }
  report.quarantined = quarantine_by_id.size();
  for (const auto& [id, line] : quarantine_by_id) {
    report.quarantine_lines.push_back(line);
  }

  // Final artifacts, queue-ordered / id-sorted — pure functions of the
  // queue and the terminal states, hence byte-identical across resumes.
  {
    std::ostringstream mf;
    mf << "# queue-index\tid\tstatus\tcanonical-request\n";
    std::size_t qi = 0;
    for (const RunRequest& req : queue_) {
      RunRequest loaded = req;
      load_trace_content(loaded);
      const std::string id = request_id(loaded);
      const Entry& e = entries[by_id.at(id)];
      const char* status = e.done        ? "done"
                           : e.quarantined ? "quarantined"
                                           : "pending";
      mf << qi << '\t' << id << '\t' << status << '\t'
         << canonical_request(loaded) << '\n';
      ++qi;
    }
    store.write_top_level("MANIFEST.tsv", mf.str());
  }
  {
    std::ostringstream ff;
    ff << "# id\tkind\tattempts\tdetail\n";
    for (const auto& [id, line] : quarantine_by_id) ff << line << '\n';
    store.write_top_level("failures.tsv", ff.str());
  }
  return report;
}

}  // namespace uvmsim::campaign
