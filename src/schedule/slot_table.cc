#include "schedule/slot_table.h"

#include <algorithm>
#include <iterator>

#include "schedule/task_recovery.h"

namespace presto {

namespace {

// One value per slot, laid out like the slot table.
template <typename Fn>
auto Grid(const std::vector<std::vector<TaskSlot>>& slots, Fn fn) {
  std::vector<std::vector<decltype(fn(slots[0][0]))>> grid(slots.size());
  for (size_t f = 0; f < slots.size(); ++f) {
    for (const TaskSlot& s : slots[f]) grid[f].push_back(fn(s));
  }
  return grid;
}

bool IsFinished(const TaskSlot& s) { return s.state == SlotState::kFinished; }

void Send(TaskClient& client, const JournalEntry& entry) {
  if (entry.split != nullptr) {
    client.AddSplit(entry.node, entry.split, entry.connector);
  } else {
    client.NoMoreSplits(entry.node);
  }
}

}  // namespace

SlotTable::SlotTable(const std::vector<std::vector<int>>& placement,
                     std::vector<std::vector<int>> inputs_of,
                     int root_fragment, int max_retries,
                     ClientFactory make_client)
    : slots_(placement.size()),
      inputs_of_(std::move(inputs_of)),
      root_(root_fragment),
      max_retries_(max_retries),
      make_client_(std::move(make_client)) {
  for (size_t f = 0; f < placement.size(); ++f) {
    slots_[f].resize(placement[f].size());
    for (size_t t = 0; t < placement[f].size(); ++t) {
      slots_[f][t].current.worker = placement[f][t];
      slots_[f][t].current.replayed = true;
      ++outstanding_;
    }
  }
}

void SlotTable::Install(int fragment, int task,
                        std::shared_ptr<TaskClient> client) {
  at(fragment, task).current.client = std::move(client);
}

void SlotTable::Deliver(int fragment, int task, const JournalEntry& entry) {
  TaskSlot& s = at(fragment, task);
  if (journaling()) s.journal.push_back(entry);
  if (s.current.replayed) Send(*s.current.client, entry);
  if (s.replica && s.replica->replayed) Send(*s.replica->client, entry);
}

void SlotTable::Replay(int fragment, int task, int generation) {
  TaskSlot& s = at(fragment, task);
  Incarnation* target = nullptr;
  if (s.current.generation == generation) target = &s.current;
  if (s.replica && s.replica->generation == generation) target = &*s.replica;
  if (target == nullptr || target->replayed) return;
  for (const JournalEntry& entry : s.journal) Send(*target->client, entry);
  (void)target->client->FlushSplits();
  target->replayed = true;
}

SlotTable::Settled SlotTable::Settle(int fragment, int task, int generation,
                                     const Status& status, bool live) {
  TaskSlot& s = at(fragment, task);
  if (s.replica && s.replica->generation == generation) {
    if (live && status.ok() && s.state != SlotState::kFinished) {
      s.replica->won = true;
      return Settled::kReplicaWon;
    }
    Retire(s.replica->client);
    s.replica.reset();
    --outstanding_;
    return Settled::kReplicaLost;
  }
  if (generation != s.current.generation) {
    // A superseded incarnation: the restart that replaced it already
    // re-accounted the slot, so its status is moot.
    --outstanding_;
    return Settled::kStale;
  }
  if (live && !status.ok() && status.code() != StatusCode::kCancelled &&
      s.state == SlotState::kRunning && s.current.client->worker_lost() &&
      s.retries < max_retries_) {
    s.state = SlotState::kRecovering;
    return Settled::kAbsorbed;
  }
  // The original out-raced its replica: the loser settles as kReplicaLost.
  if (status.ok() && s.replica && !s.replica->won) s.replica->client->Abort();
  s.state = SlotState::kFinished;
  --outstanding_;
  return Settled::kCounted;
}

SlotTable::Recovery SlotTable::Recover(int fragment, int task, int generation,
                                       const std::vector<int>& alive,
                                       bool root_needed,
                                       bool root_replayable) {
  using Outcome = Recovery::Outcome;
  Recovery r;
  TaskSlot& s = at(fragment, task);
  if (generation != s.current.generation) return r;
  const int dead = s.current.worker;
  r.dead_worker = dead;
  std::vector<std::pair<int, int>> restart = ComputeRestartSet(
      Grid(slots_, [](const TaskSlot& slot) { return slot.current.worker; }),
      Grid(slots_, IsFinished), inputs_of_, root_, root_needed, dead);
  if (restart.empty()) {
    if (s.state == SlotState::kRecovering) {
      s.state = SlotState::kFinished;
      --outstanding_;
    }
    r.outcome = Outcome::kPruned;
    return r;
  }
  bool exhausted = false;
  for (const auto& [f, t] : restart) {
    const TaskSlot& victim = at(f, t);
    exhausted = exhausted || (victim.current.worker == dead &&
                              victim.retries >= max_retries_);
    r.restarts_root = r.restarts_root || f == root_;
  }
  std::vector<int> hosts;
  std::copy_if(alive.begin(), alive.end(), std::back_inserter(hosts),
               [dead](int w) { return w != dead; });
  r.outcome = exhausted        ? Outcome::kExhausted
              : hosts.empty()  ? Outcome::kNoLiveWorker
              : r.restarts_root && !root_replayable
                  ? Outcome::kRootNotReplayable
                  : Outcome::kRestarted;
  if (r.outcome != Outcome::kRestarted) return r;
  size_t cursor = 0;
  for (const auto& [f, t] : restart) {
    TaskSlot& victim = at(f, t);
    if (victim.current.worker == dead) {
      victim.current.worker = hosts[cursor++ % hosts.size()];
      ++victim.retries;
    }
    PrepareRestart(f, t);
  }
  r.launches = Reincarnate(restart);
  return r;
}

std::vector<SlotTable::Launch> SlotTable::Speculate(
    const std::vector<std::pair<int, int>>& stragglers,
    const std::vector<int>& alive) {
  std::vector<Launch> launches;
  size_t cursor = 0;
  for (const auto& [f, t] : stragglers) {
    TaskSlot& s = at(f, t);
    if (s.speculated || s.state != SlotState::kRunning) continue;
    // Rotate through the live workers, skipping the original's.
    int target = -1;
    for (size_t i = 0; i < alive.size() && target < 0; ++i, ++cursor) {
      if (alive[cursor % alive.size()] != s.current.worker) {
        target = alive[cursor % alive.size()];
      }
    }
    if (target < 0) continue;
    Incarnation replica;
    replica.generation = ++s.issued;
    replica.worker = target;
    replica.client = make_client_(f, t, target, replica.generation);
    s.replica = replica;
    s.speculated = true;
    // The replica's own terminal callback joins the drain count.
    ++outstanding_;
    launches.push_back({f, t, replica.generation, replica.client});
  }
  return launches;
}

SlotTable::Promotion SlotTable::Promote(int fragment, int task,
                                        int generation, bool live,
                                        bool root_replayable) {
  using Outcome = Promotion::Outcome;
  Promotion p;
  TaskSlot& s = at(fragment, task);
  if (!s.replica || s.replica->generation != generation || !s.replica->won) {
    return p;  // a restart or teardown already settled the replica
  }
  p.outcome = Outcome::kRefused;
  if (!live || s.state != SlotState::kRunning) return p;
  // Every unfinished consumer downstream restarts: its RemoteSources are
  // bound to the losing original's buffers, and its own partial output is
  // not reproducible (the same rule as recovery's collateral).
  auto marked = Grid(slots_, [](const TaskSlot&) { return false; });
  marked[static_cast<size_t>(fragment)][static_cast<size_t>(task)] = true;
  std::vector<std::pair<int, int>> restart;
  p.restarts_root = fragment == root_;
  for (const auto& [f, t] :
       AddConsumerClosure(Grid(slots_, IsFinished), inputs_of_, &marked)) {
    if (f == fragment && t == task) continue;
    // A recovery round owns part of the closure: let it, and keep the
    // (slow but correct) original.
    if (at(f, t).state == SlotState::kRecovering) return p;
    restart.emplace_back(f, t);
    p.restarts_root = p.restarts_root || f == root_;
  }
  if (p.restarts_root && !root_replayable) return p;
  p.outcome = Outcome::kPromoted;
  // The loser gets a task-scoped kCancelled and settles as stale; the
  // replica's held callback becomes the slot's completion.
  Kill(s.current.client);
  s.current = *s.replica;
  s.current.won = false;
  s.replica.reset();
  s.state = SlotState::kFinished;
  --outstanding_;
  for (const auto& [f, t] : restart) PrepareRestart(f, t);
  p.launches = Reincarnate(restart);
  return p;
}

void SlotTable::Abandon(int fragment, int task) {
  TaskSlot& s = at(fragment, task);
  if (!s.replica) return;
  // A replica still racing settles later as stale; a held win settles now.
  if (s.replica->won) --outstanding_;
  Kill(s.replica->client);
  s.replica.reset();
}

void SlotTable::DischargeAll() {
  for (size_t f = 0; f < slots_.size(); ++f) {
    for (size_t t = 0; t < slots_[f].size(); ++t) {
      Abandon(static_cast<int>(f), static_cast<int>(t));
      if (slots_[f][t].state == SlotState::kRecovering) {
        slots_[f][t].state = SlotState::kFinished;
        --outstanding_;
      }
    }
  }
}

bool SlotTable::FragmentDone(int fragment) const {
  const auto& slots = slots_[static_cast<size_t>(fragment)];
  return std::all_of(slots.begin(), slots.end(), IsFinished);
}

int SlotTable::replica_count() const {
  int count = 0;
  for (const auto& fragment : slots_) {
    for (const TaskSlot& s : fragment) count += s.replica ? 1 : 0;
  }
  return count;
}

std::vector<std::shared_ptr<TaskClient>> SlotTable::Clients(
    int fragment, bool replicas) const {
  std::vector<std::shared_ptr<TaskClient>> clients;
  for (const TaskSlot& s : slots_[static_cast<size_t>(fragment)]) {
    if (!replicas) {
      clients.push_back(s.current.client);
    } else if (s.replica && s.replica->replayed) {
      clients.push_back(s.replica->client);
    }
  }
  return clients;
}

std::vector<std::shared_ptr<TaskClient>> SlotTable::AllClients(
    bool with_replicas) const {
  std::vector<std::shared_ptr<TaskClient>> clients;
  for (const auto& fragment : slots_) {
    for (const TaskSlot& s : fragment) {
      clients.push_back(s.current.client);
      if (with_replicas && s.replica) clients.push_back(s.replica->client);
    }
  }
  return clients;
}

std::vector<TaskProgressSample> SlotTable::ProgressSamples() const {
  std::vector<TaskProgressSample> samples;
  for (size_t f = 0; f < slots_.size(); ++f) {
    for (size_t t = 0; t < slots_[f].size(); ++t) {
      const TaskSlot& s = slots_[f][t];
      const TaskClient& client = *s.current.client;
      samples.push_back(
          {static_cast<int>(f), static_cast<int>(t),
           static_cast<double>(client.rows_out()),
           client.progress_age_micros(),
           s.state == SlotState::kRunning && !s.speculated &&
               client.worker_alive()});
    }
  }
  return samples;
}

void SlotTable::Retire(const std::shared_ptr<TaskClient>& client) {
  // Split and writer updates to a superseded client become no-ops: the
  // worker-side task id now belongs to the next generation.
  client->MarkSuperseded();
  superseded_.push_back(client);
}

void SlotTable::Kill(const std::shared_ptr<TaskClient>& client) {
  Retire(client);
  client->Abort();
}

void SlotTable::PrepareRestart(int fragment, int task) {
  // A racing replica loses to the restart, which replaces the slot
  // wholesale.
  Abandon(fragment, task);
  TaskSlot& slot = at(fragment, task);
  // A recovery hold becomes the replacement's outstanding callback; any
  // other state (running: settles stale later; finished: already counted)
  // adds one.
  if (slot.state != SlotState::kRecovering) ++outstanding_;
  slot.state = SlotState::kRunning;
  Retire(slot.current.client);
  slot.current.generation = ++slot.issued;
  slot.current.replayed = false;
}

std::vector<SlotTable::Launch> SlotTable::Reincarnate(
    const std::vector<std::pair<int, int>>& restart) {
  std::vector<Launch> launches;
  for (const auto& [f, t] : restart) {
    Incarnation& inc = at(f, t).current;
    inc.client = make_client_(f, t, inc.worker, inc.generation);
    launches.push_back({f, t, inc.generation, inc.client});
  }
  return launches;
}

}  // namespace presto
