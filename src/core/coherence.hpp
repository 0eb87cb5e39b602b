// The coherence engine: twin management, interval flushing, and diff
// application (paper §3.3 twins, §3.4-3.5 mixed protocol mechanics),
// extracted from the node so it can operate per-directory-shard.
//
// The engine owns the "what changed and how does it propagate" half of
// the protocol; the node keeps the "who talks to whom" half (fetch,
// lock, barrier message flows). Every entry point below documents its
// locking contract against the striped ObjectDirectory:
//
//  * per-meta calls (ensure_twin / apply_pending / apply_incoming /
//    apply_delivery / barrier_diff / retain_home_writes /
//    clear_writes) require the caller to hold the meta's shard lock;
//  * flush_interval / flush_barrier take shard locks themselves, one
//    object at a time, and must be called with NO shard lock held;
//  * build_diff_batches is pure message assembly — no locks involved.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/stats.hpp"
#include "core/diff.hpp"
#include "core/object.hpp"
#include "mem/space_layout.hpp"
#include "net/message.hpp"
#include "storage/disk_store.hpp"

namespace lots::core {

class CoherenceEngine {
 public:
  /// `home_payloads` keeps a payload for writes this node makes as the
  /// object's home too (the write-update ablation broadcasts every
  /// write at the barrier); otherwise a home's writes live only in its
  /// copy's stamps (ObjectMeta::home_written).
  CoherenceEngine(ObjectDirectory& dir, mem::SpaceLayout& space, storage::DiskStore& disk,
                  NodeStats& stats, int32_t self_rank, bool home_payloads)
      : dir_(dir), space_(space), disk_(disk), stats_(stats), self_rank_(self_rank),
        home_payloads_(home_payloads) {}
  CoherenceEngine(const CoherenceEngine&) = delete;
  CoherenceEngine& operator=(const CoherenceEngine&) = delete;

  /// Copies the object's current data into its twin slot and records it
  /// as twinned this interval, seeding twin_writers with app thread
  /// `thread` (the faulting thread; every later access check ORs its
  /// own bit in). Caller holds the shard lock; the object must be
  /// mapped.
  void ensure_twin(ObjectMeta& m, int thread = 0);

  /// Applies all updates parked while the object was unmapped. Caller
  /// holds the shard lock; the object must be mapped.
  void apply_pending(ObjectMeta& m);

  /// Applies an incoming update to a MAPPED object's data + word stamps
  /// AND, crucially, to its twin when one exists: otherwise the next
  /// flush would mistake the foreign words for local writes and re-stamp
  /// them with this node's (possibly inflated) epoch — which can bury a
  /// genuinely newer write at the barrier merge (lost update). Caller
  /// holds the shard lock.
  void apply_incoming(ObjectMeta& m, const DiffRecord& rec);

  /// Full delivery path for a record arriving from a peer (release push
  /// or barrier phase 2): applies in place when mapped, patches the disk
  /// image (and its twin, when twinned) when swapped out, materializes the master copy when this node
  /// is the home, and parks in `pending` otherwise. Caller holds the
  /// shard lock.
  void apply_delivery(ObjectMeta& m, DiffRecord&& rec, int32_t self_rank);

  /// Flushes objects twinned this interval into DiffRecords at
  /// `flush_epoch`, stamping the changed words in the copy (mapped, or
  /// its disk image when swapped out mid-interval); returns the records
  /// (a release ships them on the token chain). `thread` selects WHICH
  /// twins: a release passes the releasing thread's index and flushes
  /// exactly the twins that thread's access checks touched (twin_writers
  /// bit) — so a lock-guarded write always ships on that lock's token
  /// chain, even into a twin a sibling created, while a sibling
  /// mid-critical-section on another DISJOINT object keeps its twin
  /// (its own release ships it on the right token; flushing node-wide
  /// here would attach it to the wrong lock's scope). Twin-granularity
  /// CONTRACT: sibling app threads writing the SAME object within one
  /// interval must do so under the SAME lock (or separate the writes
  /// with a barrier) — the intra-node per-lock mutex then serializes
  /// their stores against this flush. An unsynchronized sibling store
  /// can land between the diff snapshot and the object's re-twin,
  /// where it would be absorbed into the new twin base and never
  /// diffed (a silent cluster-wide lost update that per-word stamps
  /// cannot see). Cross-NODE writers of one object need no such rule:
  /// they work on separate copies, which the stamps reconcile.
  ///
  /// What the barrier keeps: a non-home write is coalesced into its
  /// meta's `local_writes` (newest per-word stamp wins), so the barrier
  /// merge reads one bounded record per object no matter how many lock
  /// intervals preceded it. A home write keeps no payload — it only
  /// sets ObjectMeta::home_written (see barrier_diff). Call with NO
  /// shard lock held: the engine serializes whole flushes on flush_mu_,
  /// then locks each object's shard in turn.
  std::vector<DiffRecord> flush_interval(uint32_t flush_epoch, int thread);
  /// The barrier's flush: every thread's twins (all app threads are
  /// quiescent), and no records are returned — the barrier ships only
  /// what its plan asks for, from the retained summaries.
  void flush_barrier(uint32_t flush_epoch);

  /// The one record a barrier ships to the plan's home for `m`: the
  /// retained `local_writes` — or, when `m.home_written` (the plan named
  /// another home than this home writer: a stale view, or two writers
  /// that both believed they were home), a rebuild: the copy's words
  /// stamped after `since_epoch` (the last barrier), merged with any
  /// retained payload — the §3.5 on-demand diff with true per-word
  /// stamps. Foreign words in the copy ride along at their own stamps,
  /// which the newer-than rule makes harmless. Reads the copy mapped or
  /// from its disk image — a home's copy is never parked on the swap
  /// buddy (swap_out spills only non-home objects, and a cede converts
  /// home_written first). The summary itself stays until the plan is
  /// applied, so a barrier unwound by a death ships it again on the
  /// redo. Caller holds the shard lock.
  DiffRecord barrier_diff(const ObjectMeta& m, uint32_t since_epoch);

  /// A home that cedes mid-interval turns its payload-free home writes
  /// into a retained `local_writes` record (rebuilt from the copy, which
  /// is intact at the cede) so a later barrier can still ship them,
  /// whatever happens to the copy afterwards. No-op unless
  /// `m.home_written`. Caller holds the shard lock.
  void retain_home_writes(ObjectMeta& m, uint32_t since_epoch);

  /// The committed data image of a MAPPED object: its twin while
  /// twinned, else the DMM data. A twinned copy may be under write by a
  /// lock-free ALB hit on an app thread; the twin is consistent with the
  /// control words (only a flush changes both) and only shard-lock
  /// holders write it, so other threads read it race-free — and under
  /// scope consistency the open interval's writes are nobody else's to
  /// see. Caller holds the shard lock.
  [[nodiscard]] const uint8_t* committed_image(const ObjectMeta& m) const {
    return m.twinned ? space_.twin(m.dmm_offset) : space_.dmm(m.dmm_offset);
  }

  /// Drops the object's barrier write summary: local_writes AND
  /// home_written, always together. Caller holds the shard lock.
  void clear_writes(ObjectMeta& m);

  /// Packages per-peer record groups into ONE kDiffBatch message per
  /// peer — the release/barrier paths send O(peers) messages per sync
  /// operation regardless of how many objects changed. Counts
  /// diff_batch_msgs / diff_records_batched / diff_words_sent /
  /// diff_payload_bytes / diff_bytes_saved.
  static std::vector<net::Message> build_diff_batches(
      const std::map<int32_t, std::vector<DiffRecord>>& by_peer, NodeStats& stats);

  /// Broadcast form (write-update ablation): the same record set goes to
  /// every peer except `self_rank`. The payload is encoded once and the
  /// byte buffer cloned per destination — no per-peer record copies.
  static std::vector<net::Message> build_broadcast_batches(std::span<const DiffRecord> records,
                                                           int nprocs, int self_rank,
                                                           NodeStats& stats);

 private:
  ObjectDirectory& dir_;
  mem::SpaceLayout& space_;
  storage::DiskStore& disk_;
  NodeStats& stats_;
  const int32_t self_rank_;
  const bool home_payloads_;

  /// Flush selector: every app thread's twins (the barrier).
  static constexpr int kAllThreads = -1;
  /// The shared flush body: `out` receives the records, or is null when
  /// nobody ships them (the barrier).
  void flush(uint32_t flush_epoch, int thread, std::vector<DiffRecord>* out);
  /// Coalesces `rec` into m.local_writes and keeps retained_words_ (and
  /// its peak counter) in step.
  void retain(ObjectMeta& m, DiffRecord&& rec);
  /// The copy's words stamped after `since_epoch` (mapped copy or disk
  /// image), each at its own stamp. Caller holds the shard lock.
  DiffRecord copy_writes(const ObjectMeta& m, uint32_t since_epoch);
  /// Payload words currently held in local_writes across the node.
  std::atomic<uint64_t> retained_words_{0};

  /// Objects twinned since the last flush (selection happens per meta
  /// via twin_writers). Guarded by its own (leaf) mutex: ensure_twin
  /// appends under a shard lock; flush drains the list, and re-appends
  /// the entries it did not select.
  std::mutex twins_mu_;
  std::vector<ObjectId> interval_twins_;
  /// Serializes whole flush passes: two concurrent releases must not
  /// race over the drained list, or the later one would find it empty
  /// and ship a chain missing its own writes. Ordered BEFORE shard
  /// locks; never held while blocking on the network.
  std::mutex flush_mu_;
};

}  // namespace lots::core
