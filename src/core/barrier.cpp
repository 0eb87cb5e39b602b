// Barrier synchronization: migrating-home write-invalidate (paper §3.4,
// Fig. 6), orchestrated by a two-phase protocol at the master (node 0).
//
// Phase 1 — every node flushes its interval twins and sends the *ids* of
// the objects it modified, each with its own view of the object's home
// (metadata only), to the master. A home writer's flush keeps no diff
// payload, only the stamps in its copy. When all nodes have arrived the
// master computes the plan:
//   * single-writer object  -> home migrates to the writer; no object
//     data moves at all ("this information can be piggybacked on the
//     barrier exit message");
//   * multi-writer object   -> home stays put — at the writer that
//     claims it, else where the writers' views point; every other
//     writer sends its merged diff to the home.
// Phase 2 — writers deliver diffs, coalesced into ONE kDiffBatch per
// destination peer (acked), then report done; the master releases
// everyone. On exit every node invalidates its copies of modified
// objects it is not the new home of, frees the associated bookkeeping,
// and advances to the new global epoch.
//
// The kWriteUpdateOnly ablation replaces phase 2 with an all-to-all
// update broadcast and skips invalidation — the "very heavy all-to-all
// traffic" the paper argues against. Even that broadcast is one batch
// message per peer.
//
// Locking: per-object work (flush, merge, plan application) takes only
// each object's directory-shard lock in turn; the master's rendezvous
// bookkeeping lives under sync_mu_. Neither is ever held across the
// blocking enter/diff/done requests.
#include <csignal>
#include <map>

#include "core/runtime.hpp"

namespace lots::core {

void Node::barrier() {
  // Thread-collective: all of this node's app threads rendezvous and the
  // last arriver runs the node's barrier once, with every sibling
  // quiescent — so the flush below sees a stable view of the node's
  // twins (every thread's interval writes), and the plan application
  // cannot race an access check from this node. The network protocol is
  // unchanged: one kBarrierEnter per NODE, whatever threads_per_node is.
  group_.collective([&] { barrier_leader(); });
}

void Node::barrier_leader() {
  // A death notice that has not been recovered yet: unwind before any
  // new protocol traffic (a request issued after fail_all_pending swept
  // would hang out its full timeout).
  check_death();

  // Committed-redo skip: the last recovery round proved that the barrier
  // this node unwound from HAD committed cluster-wide — every live
  // rank's done was in, the master released, and only our exit reply
  // was lost to the death sweep. Our plan was applied and our replicas
  // shipped before that done, so the redone superstep's rewrite (same
  // values, by the idempotence contract) needs no new flush: consume
  // the commit locally and fall back in step with the survivors that
  // never unwound. Entering the protocol instead would deadlock — they
  // are already parked in the NEXT collective.
  if (skip_bar_) {
    skip_bar_ = false;
    stats_.barriers.fetch_add(1, std::memory_order_relaxed);
    ++chaos_bars_;  // the commit counted cluster-wide; keep kill counts aligned
    if (chaos_kill_due(/*completed=*/true)) {
      std::raise(SIGKILL);
    }
    return;
  }

  // ---- flush local writes of the ending interval ----
  const uint32_t flush_epoch = epoch_.load(std::memory_order_relaxed) + 1;
  coherence_.flush_barrier(flush_epoch);
  epoch_.store(flush_epoch, std::memory_order_relaxed);
  // The write summary: every object written since the last barrier, with
  // this node's view of its home (the master's merge-arbiter evidence).
  std::vector<std::pair<ObjectId, int32_t>> mods;
  dir_.for_each([&](ObjectMeta& m) {
    if (!m.local_writes.empty() || m.home_written) mods.emplace_back(m.id, m.home);
  });
  const uint32_t my_epoch = epoch_.load(std::memory_order_relaxed);

  // ---- phase 1: enter with the write summary, receive the plan ----
  net::Message enter;
  enter.type = net::MsgType::kBarrierEnter;
  enter.dst = master_rank();  // rank 0 until it dies, then the next alive rank
  {
    net::Writer w(enter.payload);
    w.u32(my_epoch);
    w.u32(static_cast<uint32_t>(mods.size()));
    for (const auto& [id, home] : mods) {
      w.u32(id);
      w.i32(home);
    }
  }
  net::Message plan_msg = ep_.request(std::move(enter));
  net::Reader pr(plan_msg.payload);
  const uint32_t new_epoch = pr.u32();
  const uint32_t nentries = pr.u32();
  std::vector<BarrierPlanEntry> plan(nentries);
  for (auto& e : plan) {
    e.object = pr.u32();
    e.new_home = pr.i32();
    e.multi_writer = pr.u8();
  }

  // ---- phase 2: deliver diffs, one batch message per peer ----
  const bool write_update_everywhere = rt_.config().protocol == ProtocolMode::kWriteUpdateOnly;
  std::vector<net::Message> outs;
  std::map<int32_t, std::vector<DiffRecord>> by_peer;
  if (write_update_everywhere) {
    // Ablation: merged updates broadcast to every other node (payload
    // encoded once, cloned per peer).
    std::vector<DiffRecord> merged;
    uint64_t redundant = 0;
    for (const auto& mod : mods) {
      const ObjectId id = mod.first;
      auto lk = dir_.lock_shard(id);
      ObjectMeta& m = dir_.get(id);
      DiffRecord rec = merge_records(m.local_writes, /*since=*/0, &redundant);
      if (!rec.word_idx.empty()) merged.push_back(std::move(rec));
    }
    stats_.merge_redundant_words.fetch_add(redundant, std::memory_order_relaxed);
    outs = CoherenceEngine::build_broadcast_batches(merged, nprocs(), rank_, stats_);
  } else {
    // Mixed / write-invalidate: diffs flow to the (possibly migrated)
    // home, and only for multi-writer objects — a single writer becomes
    // the home, moving zero object data. A home writer kept no payload;
    // when the plan names another home after all (a stale view, or two
    // writers that both believed they were home) it rebuilds the diff
    // from its copy's stamps instead (§3.5 on demand).
    for (const auto& e : plan) {
      auto lk = dir_.lock_shard(e.object);
      ObjectMeta* m = dir_.find(e.object);
      if (!m || (m->local_writes.empty() && !m->home_written)) continue;  // not my write
      if (e.new_home == rank_) continue;  // I hold the newest copy
      if (m->home_written) stats_.barrier_fallback_diffs.fetch_add(1, std::memory_order_relaxed);
      DiffRecord rec = coherence_.barrier_diff(*m, last_barrier_epoch_.load());
      if (!rec.word_idx.empty()) by_peer[e.new_home].push_back(std::move(rec));
    }
    outs = CoherenceEngine::build_diff_batches(by_peer, stats_);
  }
  for (auto& msg : outs) ep_.request(std::move(msg));  // acked delivery

  // ---- apply the plan BEFORE reporting done ----
  // Ordering argument: a node only issues post-barrier fetches after the
  // master's exit; the master releases only after every node reported
  // done; and done is sent only after the local plan (new homes +
  // invalidations) took effect. Hence no fetch can ever reach a node
  // still holding pre-barrier home/validity state — the invariant that
  // the serving home always has a complete, current copy.
  std::vector<ObjectId> invalidated_mapped = apply_barrier_plan(plan, new_epoch);

  // ---- barrier-consistent replication (recovery.cpp) ----
  // Ship AFTER the plan applied (this node knows which objects it now
  // homes) and BEFORE the done rendezvous: the ship is acked, so barrier
  // completion implies the backup holds every homed object at the cut.
  // cut = new_epoch - 1: every word timestamp flushed up to and
  // including this barrier is <= cut, every future flush is > cut.
  if (rt_.config().replication && nprocs() > 1) {
    ship_replicas(plan, new_epoch - 1);
  }

  // ---- chaos injection, mid-barrier variant (--kill-mid-barrier) ----
  // The victim dies INSIDE the two-phase protocol during its K-th
  // barrier: entered (the master holds it in in_barrier), plan applied,
  // replicas shipped — but before the done rendezvous, so survivors are
  // left with a partially completed barrier to unwind and redo.
  // (chaos_kill_due itself gates this on --kill-mid-barrier and on
  // being victim 1 — victim 2 never dies here.)
  if (chaos_kill_due(/*completed=*/false)) {
    std::raise(SIGKILL);
  }

  // ---- phase 2 rendezvous: wait until everyone applied the plan ----
  // bar_unacked_ brackets the commit vote: once the done is on the wire
  // the master may release the barrier whether or not our exit reply
  // survives the next death sweep. If it doesn't, the recovery
  // rendezvous compares our commit count against the cluster maximum
  // and arms skip_bar_ — see recover_leader.
  net::Message done;
  done.type = net::MsgType::kBarrierDone;
  done.dst = master_rank();
  bar_unacked_ = true;
  ep_.request(std::move(done));
  bar_unacked_ = false;
  ++bars_committed_;
  stats_.barriers.fetch_add(1, std::memory_order_relaxed);
  ++chaos_bars_;  // the reset-immune count chaos_kill_due keys off

  // ---- optional barrier-exit bulk revalidation ----
  // Every node has applied its plan (the done rendezvous above), so the
  // new homes answer fetches; the sibling app threads are still parked
  // in the collective, so the pipelined window cannot race them. The
  // invalidated-but-still-mapped set is exactly the node's recently hot
  // objects — refetch them through the async window before the
  // application resumes instead of paying one demand round trip each.
  if (rt_.config().barrier_revalidate && !invalidated_mapped.empty()) {
    fetch_.fetch_many(invalidated_mapped);
  }

  // ---- chaos injection (lots_launch --kill-rank R[,R2] ...) ----
  // The victim dies the instant its K-th barrier fully completes —
  // replicas shipped, done acknowledged — which is exactly the cut the
  // survivors recover to. SIGKILL, not exit(): no destructors, no
  // goodbye, the coordinator sees a raw EOF and the transport sees
  // silence, exercising both detection paths. Called unconditionally:
  // with --kill-mid-barrier, victim 1 fired before the done rendezvous
  // instead (chaos_kill_due arbitrates), but victim 2 ALWAYS dies here
  // post-commit — a double-kill cell must test both deaths even when
  // the first one is mid-barrier.
  if (chaos_kill_due(/*completed=*/true)) {
    std::raise(SIGKILL);
  }
}

/// True when this rank is a chaos victim whose kill barrier is reached.
/// `completed` selects the count convention: after the barrier counter
/// ticked (post-commit kill) or while still inside the K-th barrier
/// (mid-barrier kill). Victim 2 always dies post-commit — the
/// mid-barrier knob applies to victim 1 only, and the arbitration
/// lives HERE (not at the call sites) so enabling --kill-mid-barrier
/// cannot suppress victim 2's kill. Counts chaos_bars_, NOT
/// stats_.barriers: harnesses reset stats mid-run and the countdown
/// must not rewind with them.
bool Node::chaos_kill_due(bool completed) const {
  if (rt_.config().cluster.fabric != FabricKind::kUdp) return false;
  const uint32_t bars = chaos_bars_;
  const auto& cfg = rt_.config();
  if (cfg.chaos_kill_rank == rank_ && cfg.chaos_kill_after_barrier > 0 &&
      completed != cfg.chaos_kill_mid_barrier) {
    const uint32_t due = completed ? cfg.chaos_kill_after_barrier
                                   : cfg.chaos_kill_after_barrier - 1;
    if (bars == due) return true;
  }
  if (completed && cfg.chaos_kill_rank2 == rank_ &&
      cfg.chaos_kill_after_barrier2 > 0 && bars == cfg.chaos_kill_after_barrier2) {
    return true;
  }
  return false;
}

std::vector<ObjectId> Node::apply_barrier_plan(const std::vector<BarrierPlanEntry>& plan,
                                               uint32_t new_epoch) {
  // Fence the lock-driven migration machinery FIRST: kHomeMigrate /
  // kHomeMigrateAck messages stamped with the old generation are dropped
  // from here on, so no handoff decided against pre-barrier state can
  // land after the plan (which re-decides every modified object's home
  // from the master's global view).
  barrier_gen_.fetch_add(1, std::memory_order_relaxed);
  const bool write_update_everywhere = rt_.config().protocol == ProtocolMode::kWriteUpdateOnly;
  std::vector<ObjectId> adopt_remote;
  std::vector<ObjectId> invalidated_mapped;
  for (const auto& e : plan) {
    auto lk = dir_.lock_shard(e.object);
    ObjectMeta* m = dir_.find(e.object);
    if (!m) continue;
    if (write_update_everywhere) {
      // Updates were broadcast; everyone stays valid, homes do not move.
      coherence_.clear_writes(*m);
      m->valid_epoch = new_epoch;
      continue;
    }
    const bool home_changed = m->home != e.new_home;
    m->home = e.new_home;
    // Any half-done lock-driven handoff dies with the plan (a migrated
    // object is by definition modified, so the plan always covers it).
    m->migrating = false;
    if (e.new_home == rank_) {
      // Home write under a still-valid mapping: a sibling ALB entry
      // fast-pathing through the stale home would ship its next diffs
      // to a node that no longer owns the object — defeat it.
      if (home_changed) {
        dir_.bump_generation(e.object);
        // Adopted home: the predecessor's replicas (wherever they live)
        // are void — this barrier's ship_replicas sends OUR successors
        // full images.
        m->replica_marks.clear();
      }
      m->share = ShareState::kValid;
      m->valid_epoch = new_epoch;
      // A home must answer fetches from local state. If our only copy
      // is parked on the swap buddy (spilled after the writing interval
      // flushed), pull it back before reporting done — otherwise the
      // fetch service would serve zeros.
      if (m->on_remote) adopt_remote.push_back(e.object);
    } else {
      if (m->share == ShareState::kValid) {
        stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
      }
      if (m->prefetched) {
        // A warmed copy nobody accessed before it went stale again.
        m->prefetched = false;
        stats_.prefetch_wasted.fetch_add(1, std::memory_order_relaxed);
      }
      m->share = ShareState::kInvalid;
      // All app threads are parked in the barrier collective, so no ALB
      // hit can race this; the bump still defeats their cached entries
      // the moment they resume (belt to the epoch-stamp suspenders).
      dir_.bump_generation(e.object);
      // The stale copy (and its word stamps) is retained as a diff base
      // while it stays mapped; valid_epoch still names its global cut.
      m->pending.clear();
      if (m->map == MapState::kMapped) invalidated_mapped.push_back(e.object);
    }
    coherence_.clear_writes(*m);
  }
  // Adopt remotely parked images for objects we just became home of.
  // Runs before barrier() reports done, so no fetch can observe a home
  // without its data (the buddy's service thread answers kSwapGet from
  // disk state alone, so this cannot deadlock the rendezvous).
  for (ObjectId id : adopt_remote) {
    auto lk = dir_.lock_shard(id);
    ObjectMeta* m = dir_.find(id);
    if (m && m->on_remote) {
      disk_->write_object(id, take_remote(*m, lk));
      m->on_disk = true;
    }
  }
  // The barrier reconciles everything: scope update chains reset, and
  // the lock manager's dominance streaks restart from scratch (their
  // old-home observations are void under the new plan). The migration
  // HISTORY survives, though — ping-ponging writers commonly alternate
  // across barriers (the paper's RX shape), and wiping the A-B-A record
  // here would re-arm exactly the bounce the damping exists to stop.
  {
    std::lock_guard sl(sync_mu_);
    for (auto& [lock_id, tok] : tokens_) {
      (void)lock_id;
      tok.chain.clear();
    }
    for (auto& [id, st] : migrate_streaks_) {
      (void)id;
      st.last_writer = -1;
      st.streak = 0;
    }
  }
  epoch_.store(new_epoch, std::memory_order_relaxed);
  last_barrier_epoch_.store(new_epoch);
  return invalidated_mapped;
}

void Node::run_barrier() {
  // Event-only synchronization (paper §3.6): no flush, no invalidation.
  // Still thread-collective: one kRunBarrierEnter per NODE, and every
  // app thread of the node waits for the cluster-wide rendezvous.
  group_.collective([&] {
    check_death();
    // Committed-redo skip — same disambiguation as barrier_leader: the
    // run barrier this node unwound from released without our exit
    // reply surviving the death sweep; the peers have moved on.
    if (skip_run_) {
      skip_run_ = false;
      return;
    }
    net::Message enter;
    enter.type = net::MsgType::kRunBarrierEnter;
    enter.dst = master_rank();
    // The enter IS the vote here (single-phase rendezvous): once sent,
    // the master may release with or without our exit reply landing.
    run_unacked_ = true;
    ep_.request(std::move(enter));
    run_unacked_ = false;
    ++runs_committed_;
  });
}

// --- master side (service thread of master_rank()) -------------------------

void Node::on_barrier_enter(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t epoch = r.u32();
  const uint32_t nmods = r.u32();
  std::unique_lock lk(sync_mu_);
  master_.max_epoch = std::max(master_.max_epoch, epoch);
  // Death accounting: the rank is now inside the two-phase protocol
  // (cleared when the done rendezvous completes) — a member that dies
  // before that point makes the barrier unrecoverable, because the plan
  // below may partially apply cluster-wide.
  master_.in_barrier.insert(m.src);
  // Every writer names its home view. The master's own directory is no
  // evidence: alloc_object is node-local, so this rank may not have
  // created the id yet when a faster rank's enter arrives.
  for (uint32_t i = 0; i < nmods; ++i) {
    const ObjectId id = r.u32();
    const int32_t view = r.i32();
    MasterBarrier::Mod& mod = master_.mods[id];
    mod.writers.push_back(m.src);
    if (view == m.src && (mod.claim < 0 || m.src < mod.claim)) mod.claim = m.src;
    if (mod.view < 0 || view < mod.view) mod.view = view;
  }
  master_.enter_reqs.push_back(std::move(m));
  // Rendezvous over the LIVE set: after a recovery the dead rank never
  // enters again, and the survivors' barriers must complete without it.
  if (++master_.arrived < static_cast<uint32_t>(live_count())) return;

  // Everyone is here: compute and distribute the plan.
  const uint32_t new_epoch = master_.max_epoch + 1;
  std::vector<uint8_t> plan_payload;
  net::Writer w(plan_payload);
  w.u32(new_epoch);
  w.u32(static_cast<uint32_t>(master_.mods.size()));
  const bool adaptive = rt_.config().protocol == ProtocolMode::kAdaptive;
  for (const auto& [id, mod] : master_.mods) {
    const std::vector<int32_t>& writers = mod.writers;
    const bool multi = writers.size() > 1;
    const int32_t old_home = mod.old_home();
    // Fig. 6: a lone writer inherits the home (no data transfer); with
    // several writers the existing home arbitrates the merge.
    int32_t new_home = multi ? old_home : writers.front();
    if (adaptive && !multi) {
      // §5 adaptation — ping-pong damping: when the lone writer
      // alternates (w, x, w, ...), migrating the home bounces it right
      // back next barrier ("the bucket will be requested next by the
      // process that originally owns it"), so pin the home instead; the
      // writer then pushes a diff like any multi-writer would.
      auto [it, fresh] = master_.writer_hist.try_emplace(id, std::make_pair(-1, -1));
      auto& hist = it->second;  // (previous writer, the one before that)
      const int32_t cur = writers.front();
      if (!fresh && hist.first != cur && hist.second == cur) {
        new_home = old_home;
      }
      hist = {cur, hist.first};
    }
    if (new_home != old_home) {
      stats_.home_migrations.fetch_add(1, std::memory_order_relaxed);
    }
    w.u32(id);
    w.i32(new_home);
    w.u8(multi ? 1 : 0);
  }
  std::vector<net::Message> reqs = std::move(master_.enter_reqs);
  master_.enter_reqs.clear();
  master_.arrived = 0;
  master_.max_epoch = 0;
  master_.mods.clear();
  lk.unlock();
  for (auto& req : reqs) {
    net::Message resp;
    resp.type = net::MsgType::kBarrierPlan;
    resp.payload = plan_payload;
    ep_.reply(req, std::move(resp));
  }
}

void Node::on_barrier_done(net::Message&& m) {
  std::unique_lock lk(sync_mu_);
  master_.done_reqs.push_back(std::move(m));
  if (++master_.done < static_cast<uint32_t>(live_count())) return;
  std::vector<net::Message> reqs = std::move(master_.done_reqs);
  master_.done_reqs.clear();
  master_.done = 0;
  master_.in_barrier.clear();  // everyone left the protocol unharmed
  lk.unlock();
  for (auto& req : reqs) {
    net::Message resp;
    resp.type = net::MsgType::kBarrierExit;
    ep_.reply(req, std::move(resp));
  }
}

void Node::on_run_barrier_enter(net::Message&& m) {
  std::unique_lock lk(sync_mu_);
  master_.run_reqs.push_back(std::move(m));
  if (++master_.run_arrived < static_cast<uint32_t>(live_count())) return;
  std::vector<net::Message> reqs = std::move(master_.run_reqs);
  master_.run_reqs.clear();
  master_.run_arrived = 0;
  lk.unlock();
  for (auto& req : reqs) {
    net::Message resp;
    resp.type = net::MsgType::kRunBarrierExit;
    ep_.reply(req, std::move(resp));
  }
}

}  // namespace lots::core
