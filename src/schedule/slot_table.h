#ifndef PRESTOCPP_SCHEDULE_SLOT_TABLE_H_
#define PRESTOCPP_SCHEDULE_SLOT_TABLE_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "schedule/speculation.h"
#include "worker/task_client.h"

namespace presto {

/// One running copy of a task slot.
struct Incarnation {
  std::shared_ptr<TaskClient> client;
  int generation = 0;
  int worker = -1;
  /// The slot's split journal has been replayed into this incarnation, so
  /// Deliver forwards new splits to it. Until then a split reaches it only
  /// through the replay, which is what makes every split arrive once.
  /// Generation-0 incarnations start replayed: nothing was journaled
  /// before they launched.
  bool replayed = false;
  /// A replica that finished first: its terminal callback is held (still
  /// outstanding) until Promote or Abandon decides the race.
  bool won = false;
};

/// One split assignment, or a no-more-splits marker when `split` is null.
struct JournalEntry {
  int node = -1;
  SplitPtr split;
  Connector* connector = nullptr;
};

/// kRecovering: the current incarnation failed with its worker and the
/// failure was absorbed into a recovery request; its callback stays
/// outstanding (the "hold") until Recover re-launches the slot or the hold
/// is discharged. kFinished: the slot's completion was counted, with any
/// status.
enum class SlotState { kRunning, kRecovering, kFinished };

/// Every per-slot fact the coordinator keeps about task (fragment, task).
struct TaskSlot {
  int retries = 0;  // dead-worker restarts charged to this slot
  /// Highest generation handed out for the slot, replicas included, so a
  /// restart never reuses the generation of an abandoned replica.
  int issued = 0;
  bool speculated = false;  // a slot is replicated at most once per query
  SlotState state = SlotState::kRunning;
  /// Everything routed to the slot, in order; replayed verbatim into each
  /// fresh incarnation. Kept only while journaling (see SlotTable).
  std::vector<JournalEntry> journal;
  Incarnation current;
  std::optional<Incarnation> replica;  // a speculative copy racing `current`
};

/// The coordinator's task slots and their transitions (DESIGN.md §13, §15).
/// Task recovery and straggler speculation are two policies over the same
/// moves: launch a fresh incarnation, replay the journal into it, and
/// settle each incarnation's terminal callback exactly once. The table
/// also owns the outstanding-callback count that QueryExecution::Wait()
/// drains; only the transitions below change it.
///
/// Not internally synchronized: the owner serializes every call under one
/// mutex. Transitions never launch a task; they return the fresh
/// incarnations, which the owner launches outside its lock and then hands
/// back to Replay.
class SlotTable {
 public:
  /// Builds the client for a fresh incarnation of (fragment, task) on
  /// `worker` at `generation`. May read the table (producer endpoints).
  using ClientFactory = std::function<std::shared_ptr<TaskClient>(
      int fragment, int task, int worker, int generation)>;

  /// A fresh incarnation to launch and then Replay.
  struct Launch {
    int fragment = 0;
    int task = 0;
    int generation = 0;
    std::shared_ptr<TaskClient> client;
  };

  enum class Settled {
    kCounted, kStale, kAbsorbed, kReplicaWon, kReplicaLost };

  struct Recovery {
    enum class Outcome {
      kStale,             // an earlier round already replaced the slot
      kPruned,            // nobody needs the dead worker's output anymore
      kRestarted,
      kExhausted,         // a victim has no retry budget left
      kNoLiveWorker,
      kRootNotReplayable  // the restart would replay delivered results
    };
    Outcome outcome = Outcome::kStale;
    int dead_worker = -1;
    bool restarts_root = false;
    std::vector<Launch> launches;
  };

  struct Promotion {
    enum class Outcome { kGone, kRefused, kPromoted };
    Outcome outcome = Outcome::kGone;
    bool restarts_root = false;
    std::vector<Launch> launches;  // collateral consumer restarts
  };

  /// `placement[f][t]` is the generation-0 worker of each slot and
  /// `inputs_of[f]` the producer fragments feeding f. `max_retries` > 0
  /// turns on journaling: only then can a slot get a replacement.
  SlotTable(const std::vector<std::vector<int>>& placement,
            std::vector<std::vector<int>> inputs_of, int root_fragment,
            int max_retries, ClientFactory make_client);

  /// Sets the generation-0 client of a slot (before any launch).
  void Install(int fragment, int task, std::shared_ptr<TaskClient> client);

  /// Journals `entry` and forwards it to every replayed incarnation of the
  /// slot.
  void Deliver(int fragment, int task, const JournalEntry& entry);

  /// Replays the journal into the incarnation launched at `generation` and
  /// marks it replayed. No-op once it was superseded or already replayed.
  void Replay(int fragment, int task, int generation);

  /// Accounts the terminal callback of incarnation `generation`; `live`
  /// says the query has not settled. Outcomes: a replica's first-finish
  /// win is held (kReplicaWon) and any other replica end is kReplicaLost;
  /// a superseded incarnation only drops its count (kStale); a worker-loss
  /// failure with retry budget left becomes a hold (kAbsorbed); anything
  /// else finishes the slot (kCounted) and aborts a replica still racing a
  /// successful original.
  Settled Settle(int fragment, int task, int generation, const Status& status,
                 bool live);

  /// Re-launches the restart set (ComputeRestartSet) of the worker hosting
  /// the slot: dead victims move to the `alive` workers round-robin and are
  /// charged a retry, collateral consumers restart where they are. Nothing
  /// changes unless the outcome is kRestarted or kPruned.
  Recovery Recover(int fragment, int task, int generation,
                   const std::vector<int>& alive, bool root_needed,
                   bool root_replayable);

  /// Launches a replica at a fresh generation for every straggler not
  /// speculated before, on the next `alive` worker (rotating) that is not
  /// the original's.
  std::vector<Launch> Speculate(
      const std::vector<std::pair<int, int>>& stragglers,
      const std::vector<int>& alive);

  /// Makes the won replica of the slot its current incarnation and
  /// restarts every unfinished transitive consumer. Refused (no change)
  /// when the query settled, the slot finished or is recovering, a
  /// consumer is recovering, or the root would restart after delivering
  /// results; kGone when the replica was already settled.
  Promotion Promote(int fragment, int task, int generation, bool live,
                    bool root_replayable);

  /// Aborts the slot's replica; a held win is discharged.
  void Abandon(int fragment, int task);

  /// Query teardown: abandons every replica and turns every recovery hold
  /// into a counted completion.
  void DischargeAll();

  int outstanding() const { return outstanding_; }
  int num_fragments() const { return static_cast<int>(slots_.size()); }
  int num_tasks(int fragment) const {
    return static_cast<int>(slots_[static_cast<size_t>(fragment)].size());
  }
  const TaskSlot& slot(int fragment, int task) const {
    return slots_[static_cast<size_t>(fragment)][static_cast<size_t>(task)];
  }
  bool journaling() const { return max_retries_ > 0; }
  /// Every slot of the fragment is kFinished.
  bool FragmentDone(int fragment) const;
  int replica_count() const;
  /// Current clients of the fragment by task index or, with `replicas`,
  /// the fragment's replicas that take live split deliveries.
  std::vector<std::shared_ptr<TaskClient>> Clients(
      int fragment, bool replicas = false) const;
  /// Every slot's current client, and every replica if asked.
  std::vector<std::shared_ptr<TaskClient>> AllClients(
      bool with_replicas) const;
  /// Progress of every slot for PickStragglers; finished siblings anchor
  /// the quantile but are not speculatable.
  std::vector<TaskProgressSample> ProgressSamples() const;

 private:
  TaskSlot& at(int fragment, int task) {
    return slots_[static_cast<size_t>(fragment)][static_cast<size_t>(task)];
  }
  /// Marks a replaced client superseded and keeps it until the table is
  /// destroyed: destroying an HTTP client joins its poll thread, which may
  /// be delivering that client's own callback or finalizing the query.
  void Retire(const std::shared_ptr<TaskClient>& client);
  void Kill(const std::shared_ptr<TaskClient>& client);
  /// Supersedes the slot's incarnations ahead of a restart at a fresh
  /// generation (its client is made by Reincarnate once every restarting
  /// slot has its new worker and generation, which consumers' endpoints
  /// read).
  void PrepareRestart(int fragment, int task);
  std::vector<Launch> Reincarnate(
      const std::vector<std::pair<int, int>>& restart);

  std::vector<std::vector<TaskSlot>> slots_;
  std::vector<std::vector<int>> inputs_of_;
  int root_;
  int max_retries_;
  ClientFactory make_client_;
  int outstanding_ = 0;
  std::vector<std::shared_ptr<TaskClient>> superseded_;
};

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_SLOT_TABLE_H_
