// Barrier-consistent replication and worker-death recovery.
//
// Replication: at every barrier, after apply_barrier_plan and before the
// done rendezvous, each (possibly freshly migrated) home ships the words
// of its modified homed objects to its R-1 *backups* — the next R-1 live
// ranks in ring order (Config::replication = R total copies) — in one
// acked kReplicaUpdate per backup. Because every update is acked before
// kBarrierDone, barrier completion implies each backup holds every
// object at the just-committed cut: the cluster can always fall back to
// the state of the last barrier, and any f < R deaths per barrier
// interval leave at least one live holder per object.
//
// Failure detection feeds on_peer_dead from two directions: the
// lots_launch coordinator broadcasts kPeerDead when a worker's TCP
// connection EOFs before DONE (the bootstrap watcher thread delivers
// it), and the transport's bounded retransmit loop declares a silent
// peer unreachable (Config::cluster.udp_max_retrans) and both uplinks a
// kSuspect verdict and calls in here directly.
//
// Recovery model: the application runs barrier-structured, idempotent
// supersteps over the live worker set (lots::alive). When a worker dies
// between barriers, every in-flight request and lock wait unwinds with
// WorkerDied; the application catches it, calls lots::recover() on every
// surviving thread, re-partitions over the survivors and REDOES the
// current superstep. recover() re-homes the dead rank's objects to the
// replica holder (which materializes its replicas as authoritative home
// copies at the last barrier cut), re-mints every DSM lock (post-cut
// scope chains are redone anyway), and rendezvouses cluster-wide so no
// survivor resumes before every holder is serving.
//
// Master failover: the barrier master and recovery rendezvous live on
// the lowest-numbered ALIVE rank (master_rank()), not on rank 0 — the
// coordinator's kPeerDead broadcast gives every survivor the same dead
// set, so they deterministically agree on the new master, whose
// rendezvous state starts fresh (the interrupted barrier is replayed by
// the survivors' redone supersteps). Static lock managership fails over
// the same way: manager_of(lock) walks the hash rank forward to the
// next live rank, which mints the lock's state on first touch.
//
// A death INSIDE the two-phase barrier protocol is recoverable too: the
// interrupted plan may have partially applied cluster-wide, but every
// value it moved belongs to the superstep the survivors are about to
// redo — per-word newest-wins timestamps make the redone flush converge
// every copy, and the dead rank's objects rejoin at their replica cut.
// After any recovery, every home voids its replica watermarks so the
// next barrier re-seeds the (possibly rotated) ring with full images.
//
// Remaining limitation (documented in ARCHITECTURE.md): f >= R deaths
// within one barrier interval can erase every holder of an object.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstring>

#include "core/runtime.hpp"

namespace lots::core {

int Node::backup_of(int home) const {
  for (int i = 1; i < nprocs(); ++i) {
    const int r = (home + i) % nprocs();
    if (r != home && rank_alive(r)) return r;
  }
  return -1;
}

std::vector<int> Node::ring_successors(int home, int count) const {
  std::vector<int> out;
  for (int i = 1; i < nprocs() && static_cast<int>(out.size()) < count; ++i) {
    const int r = (home + i) % nprocs();
    if (r != home && rank_alive(r)) out.push_back(r);
  }
  return out;
}

int Node::master_rank() const {
  for (int r = 0; r < nprocs(); ++r) {
    if (rank_alive(r)) return r;
  }
  return 0;  // unreachable: this node is alive
}

int Node::manager_of(uint32_t lock_id) const {
  const int base = static_cast<int>(lock_id % static_cast<uint32_t>(nprocs()));
  for (int i = 0; i < nprocs(); ++i) {
    const int r = (base + i) % nprocs();
    if (rank_alive(r)) return r;
  }
  return base;
}

void Node::check_death() const {
  if (death_pending_.load(std::memory_order_acquire)) {
    const int dead = last_dead_.load(std::memory_order_relaxed);
    throw WorkerDied(dead, "worker " + std::to_string(dead) +
                               " died; the application must run lots::recover() "
                               "before synchronizing again");
  }
}

void Node::on_peer_dead(int dead) {
  if (dead < 0 || dead >= nprocs() || dead == rank_) return;
  if (dead_[static_cast<size_t>(dead)].exchange(1, std::memory_order_acq_rel)) {
    return;  // second verdict (coordinator + transport both noticed)
  }
  {
    std::lock_guard sl(sync_mu_);
    dead_pending_.push_back(dead);
  }
  last_dead_.store(dead, std::memory_order_relaxed);
  death_pending_.store(true, std::memory_order_release);
  // Fence the corpse at the wire: stop sending to it, release senders
  // parked on its flow-control window, and drop its late datagrams (the
  // zombie fence — a SIGKILLed worker's retransmits must not land in the
  // new view). Then fail EVERY pending request in one sweep: a request
  // parked at a live peer (a barrier enter at the master, a fetch the
  // dead rank was supposed to unblock) can never complete once a
  // participant died, so all waiters unwind to the recovery path instead
  // of timing out one by one. The sweep must be the ONLY step that wakes
  // waiters — a thread released early (say, by failing just the dead
  // rank's requests first) would sprint into recover(), park its
  // kRecoverEnter in the pending table, and have this very sweep kill
  // it; fail_all_pending marks the rank dead and drains atomically.
  ep_.transport().mark_peer_dead(dead);
  ep_.fail_all_pending(dead);
  {
    std::lock_guard sl(sync_mu_);
    for (auto& [id, wslot] : lock_waits_) {
      (void)id;
      if (!wslot.granted) wslot.failed = dead;
    }
    lock_cv_.notify_all();
  }
  // If we are (or just became) the recovery master, re-evaluate the
  // rendezvous under the shrunk live set: the survivors may ALL have
  // entered already, parked waiting on the rank that just died.
  {
    std::unique_lock lk(sync_mu_);
    maybe_release_recover(lk);
  }
}

// --- replication: home side (barrier leader) -------------------------------

void Node::ship_replicas(const std::vector<BarrierPlanEntry>& plan, uint32_t cut) {
  const auto backups = ring_successors(rank_, rt_.config().replicas() - 1);
  if (backups.empty()) return;  // no live backup left: nothing to survive for

  std::vector<net::Endpoint::PendingReply> acks;
  acks.reserve(backups.size());
  for (const int b : backups) {
    // Per-backup ship list: the barrier's modified homed objects, plus
    // every homed object THIS backup has no watermark for (fresh
    // allocations, a voided mark, a ring rotated by a death) — each
    // backup must cover the whole homed set, not just the write
    // frontier, and a new ring member needs full images even for
    // objects untouched this barrier.
    std::vector<ObjectId> ship;
    std::unordered_set<ObjectId> seen;
    for (const auto& e : plan) {
      if (e.new_home == rank_ && seen.insert(e.object).second) ship.push_back(e.object);
    }
    dir_.for_each([&](ObjectMeta& m) {
      if (m.home == rank_ && !m.replica_mark(b) && seen.insert(m.id).second) {
        ship.push_back(m.id);
      }
    });
    if (ship.empty()) continue;

    net::Message up;
    up.type = net::MsgType::kReplicaUpdate;
    up.dst = b;
    net::Writer w(up.payload);
    w.u32(cut);
    w.u32(static_cast<uint32_t>(ship.size()));
    for (ObjectId id : ship) {
      auto lk = dir_.lock_shard(id);
      ObjectMeta* pm = dir_.find(id);
      if (!pm || pm->home != rank_) {  // freed / re-homed under us: empty record
        w.u32(id);
        w.u32(0);
        w.u8(0);
        w.u32(0);
        continue;
      }
      ObjectMeta& m = *pm;
      // The sibling app threads are parked in the barrier collective, but
      // the service thread may still be finishing a home-side flow on this
      // object: wait its guard out, then own the mapping state ourselves.
      dir_.shard_cv(id).wait(lk, [&] { return !m.inflight; });
      m.inflight = true;
      InflightGuard guard{dir_, m, lk};
      // The home's authoritative image: mapped data with pending diffs
      // (phase-2 deliveries that landed while unmapped) applied.
      if (m.map != MapState::kMapped) map_in(m, lk);
      if (!m.pending.empty()) coherence_.apply_pending(m);
      const uint32_t* vals = reinterpret_cast<const uint32_t*>(space_.dmm(m.dmm_offset));
      const uint32_t* ts = space_.ctrl_words(m.dmm_offset);
      const uint32_t words = m.words();
      ObjectMeta::ReplicaMark* mark = m.replica_mark(b);
      const bool full = mark == nullptr;  // fresh object or new ring member
      w.u32(id);
      w.u32(m.size_bytes);
      w.u8(full ? 1 : 0);
      if (full) {
        w.bytes({reinterpret_cast<const uint8_t*>(vals), static_cast<size_t>(words) * 4});
        w.bytes({reinterpret_cast<const uint8_t*>(ts), static_cast<size_t>(words) * 4});
      } else {
        // Diff since this backup's last shipped cut: exactly the words
        // stamped after its watermark (every word changed since then
        // carries a newer flush epoch; nothing older can have changed).
        uint32_t n = 0;
        for (uint32_t i = 0; i < words; ++i) n += ts[i] > mark->epoch ? 1 : 0;
        w.u32(n);
        for (uint32_t i = 0; i < words; ++i) {
          if (ts[i] <= mark->epoch) continue;
          w.u32(i);
          w.u32(vals[i]);
          w.u32(ts[i]);
        }
      }
      // Advance the watermark at encode time. If the ack is later swept
      // by a death notice, recovery voids every mark (full re-seed), so
      // a ship the backup never saw cannot leave a silent diff hole.
      if (mark) {
        mark->epoch = cut;
      } else {
        m.replica_marks.push_back({b, cut});
      }
    }
    stats_.replica_msgs.fetch_add(1, std::memory_order_relaxed);
    stats_.replica_bytes.fetch_add(up.payload.size(), std::memory_order_relaxed);
    acks.push_back(ep_.request_async(std::move(up)));
  }
  // All fan-out updates acked BEFORE kBarrierDone: barrier completion
  // implies every live backup holds the cut.
  for (auto& ack : acks) ack.wait();
}

// --- replication: backup side (service thread) -----------------------------

void Node::on_replica_update(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t cut = r.u32();
  const uint32_t count = r.u32();
  {
    std::lock_guard rl(replica_mu_);
    for (uint32_t i = 0; i < count; ++i) {
      const ObjectId id = r.u32();
      const uint32_t size_bytes = r.u32();
      const bool full = r.u8() != 0;
      if (size_bytes == 0) {  // placeholder for a vanished object
        if (!full) r.u32();
        continue;
      }
      const size_t words = (static_cast<size_t>(size_bytes) + 3) / 4;
      Replica& rep = replicas_[id];
      if (rep.data.size() != words * 4) {
        rep.data.assign(words * 4, 0);
        rep.ts.assign(words, 0);
      }
      if (full) {
        auto dv = r.bytes_view();
        auto tv = r.bytes_view();
        std::memcpy(rep.data.data(), dv.data(), std::min(dv.size(), rep.data.size()));
        std::memcpy(rep.ts.data(), tv.data(), std::min(tv.size(), words * 4));
      } else {
        const uint32_t n = r.u32();
        for (uint32_t k = 0; k < n; ++k) {
          const uint32_t idx = r.u32();
          const uint32_t val = r.u32();
          const uint32_t wts = r.u32();
          if (idx >= words) continue;
          if (wts >= rep.ts[idx]) {  // newest word wins, as everywhere
            rep.ts[idx] = wts;
            std::memcpy(rep.data.data() + static_cast<size_t>(idx) * 4, &val, 4);
          }
        }
      }
      rep.epoch = std::max(rep.epoch, cut);
    }
  }
  net::Message ack;
  ack.type = net::MsgType::kReply;
  ep_.reply(m, std::move(ack));
}

// --- recovery (app threads, collective) ------------------------------------

void Node::recover() {
  group_.collective([&] { recover_leader(); });
}

void Node::recover_leader() {
  std::vector<int> deads;
  {
    std::lock_guard sl(sync_mu_);
    deads.swap(dead_pending_);
  }
  if (deads.empty()) return;  // spurious call (or a sibling round already ran)
  if (!rt_.config().replication) {
    throw SystemError(
        "worker " + std::to_string(deads.front()) +
        " died but replication is off — run with LOTS_REPLICATE=2 to survive "
        "worker failures");
  }
  // Chaos: die at the top of our own recovery pass, while the other
  // survivors are mid-recovery for the earlier death — exercises the
  // application's recover-retry loop.
  if (rt_.config().chaos_kill_in_recovery == rank_ &&
      rt_.config().cluster.fabric == FabricKind::kUdp) {
    std::raise(SIGKILL);
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Fence the old view: handoffs stamped with the old barrier generation
  // die on arrival, and the epoch bump defeats every thread's ALB so no
  // cached pointer survives the re-homing below.
  barrier_gen_.fetch_add(1, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_relaxed);
  std::vector<int> repaired;
  for (;;) {
    for (const int dead : deads) {
      // The authoritative re-home target: the lowest-alive holder in the
      // dead rank's ring order — with R total copies, any f < R deaths
      // leave it within the shipped successor set.
      const int holder = backup_of(dead);
      LOTS_CHECK(holder >= 0, "recovery: no live replica holder remains");
      repair_objects_after_death(dead, holder);
      repaired.push_back(dead);
    }
    // Drain deaths noticed WHILE repairing before the rendezvous. The
    // enter's round stamp is the cumulative count of deaths this node
    // has noticed — if a notice landed mid-repair, entering now would
    // stamp deaths we never repaired, and the survivors would disagree
    // on how many rendezvous rounds this failure takes (the shorter
    // side moves on; the longer side's extra enter parks forever).
    // Repairing every noticed death first makes the stamp honest and
    // the round count identical on every survivor.
    {
      std::lock_guard sl(sync_mu_);
      deads.clear();
      deads.swap(dead_pending_);
    }
    if (deads.empty()) break;
  }
  // Re-seed rotated rings: void every remaining watermark on our homed
  // objects so the next barrier ships FULL images to the (possibly
  // shifted) successor set. This also closes the swept-ack hole — a
  // kReplicaUpdate whose ack was failed by the death sweep may never
  // have reached its backup, so no pre-death watermark can be trusted.
  uint32_t reseeded = 0;
  dir_.for_each([&](ObjectMeta& m) {
    if (m.home == rank_ && !m.replica_marks.empty()) {
      m.replica_marks.clear();
      ++reseeded;
    }
  });
  stats_.rings_reseeded.fetch_add(reseeded, std::memory_order_relaxed);
  {
    std::lock_guard sl(sync_mu_);
    reclaim_dead_locks();
  }
  // Cluster-wide rendezvous at the master — the lowest-numbered ALIVE
  // rank, so the rendezvous itself survives rank 0's death: nobody
  // resumes before every survivor finished its local repair (a
  // post-recovery fetch must find the holder already serving its
  // materialized copy) and the master discarded the parked rendezvous
  // state of the old view.
  net::Message enter;
  enter.type = net::MsgType::kRecoverEnter;
  enter.dst = master_rank();
  {
    net::Writer w(enter.payload);
    // Round stamp: cumulative deaths this node has noticed (all
    // repaired, thanks to the drain loop above). The master only
    // releases on entries carrying ITS current count, so a parked
    // enter from before a mid-recovery death can never satisfy (or
    // desynchronize) the next round's rendezvous.
    w.u32(static_cast<uint32_t>(dead_count()));
    // Commit counts, for collective-commit disambiguation: how many
    // coherence / run barriers this node has seen COMMIT (exit reply in
    // hand). The master echoes the cluster maxima in the exit; a
    // survivor whose vote was in but whose count trails the maximum
    // learns its interrupted collective committed without it.
    w.u32(bars_committed_);
    w.u32(runs_committed_);
    w.u32(static_cast<uint32_t>(repaired.size()));
    for (const int dead : repaired) w.i32(dead);
  }
  net::Endpoint::PendingReply pending = ep_.request_async(std::move(enter));
  {
    // A death noticed between the drain loop and the request landing in
    // the pending table is swept by neither: the notice's sweep ran too
    // early to fail our slot, and our stale stamp would park at the
    // master forever. Re-check under the same mutex the notice pushes
    // through — if one slipped in, unwind (the abandoned handle
    // deregisters itself) and let the application's retry loop run
    // another round with the full dead set.
    std::lock_guard sl(sync_mu_);
    if (!dead_pending_.empty()) {
      const int dead = dead_pending_.back();
      throw WorkerDied(dead, "worker " + std::to_string(dead) +
                                 " died during recovery; retrying the repair");
    }
  }
  net::Message exit = pending.wait();
  net::Reader r(exit.payload);
  if (r.u8() != 0) {
    // The victim died INSIDE the two-phase barrier protocol. The
    // interrupted plan may have partially applied, but everything it
    // moved belongs to the superstep the survivors now redo: per-word
    // newest-wins stamps converge every copy at the redone barrier, and
    // the full re-seed above restores replica coverage. Count it; no
    // longer fatal.
    stats_.recoveries_mid_barrier.fetch_add(1, std::memory_order_relaxed);
  }
  // Collective-commit disambiguation. If this node unwound AFTER its
  // commit vote went out (done sent / run-enter sent) it cannot tell on
  // its own whether the collective released before the death sweep ate
  // the exit reply. The cluster maxima settle it: commit requires every
  // live rank's vote, so a peer counting one more commit than us proves
  // the release happened — and proves our own vote was in it. Arm the
  // skip so the application's redo of that collective returns instead
  // of re-entering a protocol its peers have already left (they are
  // parked in the NEXT collective; entering the old one would deadlock
  // both rendezvous forever). Without an outstanding vote the maxima
  // can never exceed our counts — a collective cannot release without
  // us. The skew is at most one: a node cannot vote on collective N+2
  // before consuming N+1's exit.
  {
    const uint32_t cluster_bars = r.u32();
    const uint32_t cluster_runs = r.u32();
    if (bar_unacked_ && cluster_bars > bars_committed_) {
      bars_committed_ = cluster_bars;
      skip_bar_ = true;
      stats_.recoveries_commit_skips.fetch_add(1, std::memory_order_relaxed);
    }
    if (run_unacked_ && cluster_runs > runs_committed_) {
      runs_committed_ = cluster_runs;
      skip_run_ = true;
      stats_.recoveries_commit_skips.fetch_add(1, std::memory_order_relaxed);
    }
    bar_unacked_ = false;
    run_unacked_ = false;
  }
  stats_.recoveries.fetch_add(1, std::memory_order_relaxed);
  const auto dt = std::chrono::steady_clock::now() - t0;
  stats_.recover_wall_us.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(dt).count()),
      std::memory_order_relaxed);
  {
    std::lock_guard sl(sync_mu_);
    // A death noticed DURING recovery stays pending: the gate re-arms and
    // the application's next sync throws again, driving another round.
    if (dead_pending_.empty()) death_pending_.store(false, std::memory_order_release);
  }
  // Chaos: die the instant the recovery round completes — rendezvous
  // released, objects re-homed to us, but the next barrier's full-image
  // re-seed still pending. Aimed at a rank that just adopted a dead
  // home's objects, this forces the NEXT repair to fall back on the
  // replicas the other survivors kept from the first fan-out.
  if (rt_.config().chaos_kill_after_recovery == rank_ &&
      rt_.config().cluster.fabric == FabricKind::kUdp) {
    std::raise(SIGKILL);
  }
}

void Node::repair_objects_after_death(int dead, int holder) {
  dir_.for_each([&](ObjectMeta& m) {
    if (m.home == dead) {
      if (rank_ == holder) {
        // Materialize the replica as the authoritative home copy at the
        // last barrier cut. Our own live copy — whatever its state — is
        // discarded first: it may hold post-cut words that died with the
        // home's unshipped interval, and the cut is the one consistent
        // line every survivor can rejoin on.
        Replica rep;
        bool have = false;
        {
          std::lock_guard rl(replica_mu_);
          auto it = replicas_.find(m.id);
          if (it != replicas_.end()) {
            rep = std::move(it->second);
            replicas_.erase(it);
            have = true;
          }
        }
        drop_mapping(m, /*keep_disk_image=*/false);
        m.home = rank_;
        m.share = ShareState::kValid;
        m.twinned = false;
        m.twin_writers = 0;
        m.pending.clear();
        coherence_.clear_writes(m);
        m.replica_marks.clear();  // full-ship to OUR successors next barrier
        stats_.objects_rehomed.fetch_add(1, std::memory_order_relaxed);
        if (have) {
          const size_t bytes = word_bytes(m);
          rep.data.resize(bytes, 0);
          rep.ts.resize(bytes / 4, 0);
          disk_->write_image(
              m.id, storage::DiskImage({rep.data.data(), rep.ts.data(), nullptr, bytes}));
          m.on_disk = true;
          m.valid_epoch = rep.epoch;
        } else {
          // Never shipped: the object was never dirty at any barrier, so
          // its content at the cut is all-zero — exactly what a fresh
          // map-in provides.
          m.valid_epoch = 0;
        }
      } else {
        // Point at the holder and drop every trace of our copy. Our
        // valid_epoch may run AHEAD of the replica cut (post-cut updates
        // died with the home), so a diff-since-base fetch would miss
        // words: force the next access to take a FULL copy.
        drop_mapping(m, /*keep_disk_image=*/false);
        m.home = holder;
        m.share = ShareState::kInvalid;
        m.twinned = false;
        m.twin_writers = 0;
        m.pending.clear();
        coherence_.clear_writes(m);
        m.replica_marks.clear();
        // We may hold a replica of this object from the dead home's
        // fan-out. KEEP it: it sits exactly at the recovery cut — the
        // same cut the holder just materialized — and it is the only
        // surviving fallback if the new home dies again before the next
        // barrier re-seeds the ring (still f < R deaths in one barrier
        // interval). backup_of always lands on the nearest ring
        // successor of the failed home, so within f < R the chosen
        // holder's replica is never staler than the committed cut; the
        // new home's full-image re-seed overwrites ours at the next
        // barrier.
      }
      dir_.bump_generation(m.id);
    }
    // Our own homed objects' watermarks (including any naming the
    // corpse) are voided wholesale by recover_leader's re-seed pass.
  });
}

/// Caller holds sync_mu_. Re-mints EVERY lock this node manages, not
/// just those the dead rank held: at the recovery point all in-flight
/// grants, queued waiters and parked tokens belong to intervals the
/// survivors are about to redo — their scope chains carry only post-cut
/// records (barriers clear them), which the redo regenerates. Locally
/// parked tokens for remotely managed locks are dropped for the same
/// reason (their managers re-mint them on their own recovery pass).
void Node::reclaim_dead_locks() {
  tokens_.clear();
  lock_waits_.clear();
  for (auto& [lock_id, s] : managed_locks_) {
    s.busy = false;
    s.token_at = rank_;
    s.granted_to = -1;
    s.waiters.clear();
    tokens_[lock_id] = LockToken{};
  }
  for (auto& [id, st] : migrate_streaks_) {
    (void)id;
    st.last_writer = -1;
    st.streak = 0;
    st.hist = {-1, -1};
  }
}

// --- recovery rendezvous (master side, service thread) ---------------------

void Node::on_recover_enter(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t cum = r.u32();  // sender's round stamp
  std::unique_lock lk(sync_mu_);
  // Latest entry per rank wins: a survivor that unwound (its parked
  // enter swept by a mid-recovery death) re-enters with a higher stamp,
  // superseding the stale round's request. The old parked reply is owed
  // to a seq its sender already failed, so dropping it loses nothing.
  master_.recover_entries[m.src] = {cum, std::move(m)};
  maybe_release_recover(lk);
}

void Node::maybe_release_recover(std::unique_lock<std::mutex>& lk) {
  if (master_.recover_entries.empty()) return;
  // Release only when every LIVE rank has entered at EXACTLY this
  // master's round: its stamp must equal our own cumulative dead count.
  // A smaller stamp is a stale round — its sender has been unwound and
  // will re-enter. A LARGER stamp means that survivor noticed a death
  // (transport verdict) the master has not seen yet: releasing now
  // would resume the lagging survivors without repairing it, and the
  // ahead survivor — already counting that death in this round — would
  // never re-enter the next rendezvous, parking it forever. Hold the
  // round instead; our own on_peer_dead re-evaluates here once the
  // coordinator's broadcast (or our transport) catches us up.
  const auto my_cum = static_cast<uint32_t>(dead_count());
  for (int rnk = 0; rnk < nprocs(); ++rnk) {
    if (!rank_alive(rnk)) continue;
    auto it = master_.recover_entries.find(rnk);
    if (it == master_.recover_entries.end() || it->second.first != my_cum) return;
  }

  // Every survivor finished local repair. A DEAD rank still registered
  // inside the two-phase barrier means the victim died mid-protocol and
  // the master's plan may have partially applied cluster-wide. That is
  // no longer fatal — the survivors' redone superstep re-flushes every
  // value the plan moved and the re-seeded rings restore coverage — but
  // the verdict is reported so survivors can count the mid-barrier
  // recovery. (Live ranks parked in in_barrier are just the survivors
  // whose interrupted barrier never completed — harmless.)
  bool mid_barrier = false;
  for (const int32_t member : master_.in_barrier) {
    if (!rank_alive(member)) mid_barrier = true;
  }
  // Cluster commit maxima for collective-commit disambiguation: the
  // largest coherence / run barrier commit counts any survivor reported
  // this round. Echoed in every exit so a survivor whose vote was in
  // but whose exit reply was swept can recognize its collective as
  // committed (see recover_leader). Re-parsed from the parked payloads
  // so master failover needs no carried-over state.
  uint32_t max_bars = 0;
  uint32_t max_runs = 0;
  for (const auto& [rnk, entry] : master_.recover_entries) {
    (void)rnk;
    net::Reader er(entry.second.payload);
    er.u32();  // round stamp, already matched above
    max_bars = std::max(max_bars, er.u32());
    max_runs = std::max(max_runs, er.u32());
  }
  // Discard the old view's parked rendezvous state. The parked
  // requesters were already failed by their own nodes' fail_all_pending,
  // so no reply is owed; their redone supersteps re-enter against the
  // fresh counters below.
  master_.arrived = 0;
  master_.done = 0;
  master_.max_epoch = 0;
  master_.enter_reqs.clear();
  master_.done_reqs.clear();
  master_.mods.clear();
  master_.run_arrived = 0;
  master_.run_reqs.clear();
  master_.in_barrier.clear();
  std::vector<net::Message> reqs;
  reqs.reserve(master_.recover_entries.size());
  for (auto& [rnk, entry] : master_.recover_entries) {
    (void)rnk;
    reqs.push_back(std::move(entry.second));
  }
  master_.recover_entries.clear();
  lk.unlock();
  for (auto& req : reqs) {
    net::Message resp;
    resp.type = net::MsgType::kRecoverExit;
    net::Writer w(resp.payload);
    w.u8(mid_barrier ? 1 : 0);
    w.u32(max_bars);
    w.u32(max_runs);
    ep_.reply(req, std::move(resp));
  }
}

}  // namespace lots::core
