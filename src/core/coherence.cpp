#include "core/coherence.hpp"

#include <algorithm>
#include <cstring>

namespace lots::core {
namespace {

/// Applies `rec` to a copy's data and stamps and, when `twin` is set,
/// mirrors the accepted words into it so the next flush diffs only this
/// node's own writes. A word was accepted exactly when its stamp now
/// equals the record's. Returns the number of words applied.
size_t apply_mirrored(const DiffRecord& rec, uint8_t* data, uint32_t* ts, uint8_t* twin) {
  const size_t applied = apply_record(rec, data, ts);
  if (twin && applied) {
    for (size_t i = 0; i < rec.word_idx.size(); ++i) {
      const uint32_t wi = rec.word_idx[i];
      if (ts[wi] == rec.ts_of(i)) {
        std::memcpy(twin + static_cast<size_t>(wi) * 4, &rec.word_val[i], 4);
      }
    }
  }
  return applied;
}

}  // namespace

void CoherenceEngine::ensure_twin(ObjectMeta& m, int thread) {
  LOTS_CHECK(m.map == MapState::kMapped, "ensure_twin: not mapped");
  std::memcpy(space_.twin(m.dmm_offset), space_.dmm(m.dmm_offset), word_bytes(m));
  m.twinned = true;
  m.twin_writers = twin_writer_bit(thread);
  std::lock_guard g(twins_mu_);
  interval_twins_.push_back(m.id);
}

void CoherenceEngine::apply_pending(ObjectMeta& m) {
  LOTS_CHECK(m.map == MapState::kMapped, "apply_pending: not mapped");
  uint32_t complete_to = 0;
  for (const DiffRecord& rec : m.pending) {
    apply_incoming(m, rec);
    if (rec.completes_to_epoch) complete_to = std::max(complete_to, rec.epoch);
  }
  m.pending.clear();
  // A prefetch landing's diff-since-base (or full copy) makes the copy
  // complete to the home's cut — but only once it is actually applied.
  if (complete_to > m.valid_epoch) m.valid_epoch = complete_to;
}

void CoherenceEngine::apply_incoming(ObjectMeta& m, const DiffRecord& rec) {
  LOTS_CHECK(m.map == MapState::kMapped, "apply_incoming: not mapped");
  const size_t applied =
      apply_mirrored(rec, space_.dmm(m.dmm_offset), space_.ctrl_words(m.dmm_offset),
                     m.twinned ? space_.twin(m.dmm_offset) : nullptr);
  stats_.diff_words_redundant.fetch_add(rec.words() - applied, std::memory_order_relaxed);
}

void CoherenceEngine::apply_delivery(ObjectMeta& m, DiffRecord&& rec, int32_t self_rank) {
  const uint32_t rec_epoch = rec.epoch;
  const size_t bytes = word_bytes(m);
  if (m.map == MapState::kMapped) {
    apply_incoming(m, rec);
  } else if (m.on_disk) {
    std::vector<uint8_t> image((m.twinned ? 3 : 2) * bytes);
    LOTS_CHECK(disk_.read_object(rec.object, image), "diff target image vanished");
    // A twinned image (swapped out mid-interval) keeps its twin at
    // +2*bytes: mirror into it exactly as a mapped copy does.
    apply_mirrored(rec, image.data(), reinterpret_cast<uint32_t*>(image.data() + bytes),
                   m.twinned ? image.data() + 2 * bytes : nullptr);
    disk_.write_object(rec.object, image);
  } else if (m.home == self_rank) {
    // The home must materialize the master copy even if it never
    // touched the object itself.
    std::vector<uint8_t> image(2 * bytes, 0);
    apply_record(rec, image.data(), reinterpret_cast<uint32_t*>(image.data() + bytes));
    disk_.write_object(rec.object, image);
    m.on_disk = true;
  } else {
    // A parked update makes the fast-path predicate `pending.empty()`
    // false: defeat any ALB entry still pointing at the object.
    m.pending.push_back(std::move(rec));
    dir_.bump_generation(m.id);
  }
  if (m.home == self_rank) {
    m.valid_epoch = std::max(m.valid_epoch, rec_epoch);
  }
}

std::vector<DiffRecord> CoherenceEngine::flush_interval(uint32_t flush_epoch, int thread) {
  std::vector<DiffRecord> out;
  flush(flush_epoch, thread, &out);
  return out;
}

void CoherenceEngine::flush_barrier(uint32_t flush_epoch) {
  flush(flush_epoch, kAllThreads, nullptr);
}

void CoherenceEngine::flush(uint32_t flush_epoch, int thread, std::vector<DiffRecord>* out) {
  // Whole flushes serialize (see flush_mu_ comment), then the drained
  // list is filtered per meta: a releasing thread flushes exactly the
  // twins its access checks touched (twin_writers), keeping siblings'
  // disjoint twins for their own releases; the barrier takes all.
  std::lock_guard fg(flush_mu_);
  std::vector<ObjectId> twins;
  {
    std::lock_guard g(twins_mu_);
    twins.swap(interval_twins_);
  }
  std::vector<ObjectId> keep;
  for (ObjectId id : twins) {
    auto lk = dir_.lock_shard(id);
    ObjectMeta* m = dir_.find(id);
    if (!m || !m->twinned) continue;
    if (thread != kAllThreads && (m->twin_writers & twin_writer_bit(thread)) == 0) {
      keep.push_back(id);  // untouched by this thread: not in this scope
      continue;
    }
    m->twin_writers = 0;
    m->twinned = false;
    // The flush clears twinned/twin_writers: a sibling's cached ALB
    // entry must not skip the re-twin on its next access. (The epoch
    // stamp already defeats entries at every sync boundary; this bump
    // closes the window between the epoch advance and this clear.)
    dir_.bump_generation(id);
    // Diff the mapped copy, or — when the dirty object was swapped out
    // mid-interval — its disk image in place, without disturbing the DMM.
    const size_t bytes = word_bytes(*m);
    std::vector<uint8_t> image;
    uint8_t* data;
    uint32_t* ts;
    const uint8_t* twin;
    if (m->map == MapState::kMapped) {
      data = space_.dmm(m->dmm_offset);
      ts = space_.ctrl_words(m->dmm_offset);
      twin = space_.twin(m->dmm_offset);
    } else {
      LOTS_CHECK(m->on_disk, "twinned unmapped object lost its disk image");
      image.resize(3 * bytes);
      LOTS_CHECK(disk_.read_object(id, image), "flush: disk image vanished");
      data = image.data();
      ts = reinterpret_cast<uint32_t*>(image.data() + bytes);
      twin = image.data() + 2 * bytes;
    }
    // A home's write is committed in its own copy: unless a release
    // ships it or the ablation broadcasts it, stamping the changed words
    // is all the flush has to do.
    const bool home = m->home == self_rank_ && !home_payloads_;
    DiffRecord rec;
    size_t changed;
    if (out || !home) {
      rec = compute_twin_diff(id, flush_epoch, {data, bytes}, {twin, bytes});
      for (uint32_t wi : rec.word_idx) ts[wi] = flush_epoch;
      changed = rec.words();
    } else {
      changed = stamp_twin_diff(flush_epoch, {data, bytes}, {twin, bytes}, ts);
    }
    if (!image.empty()) {
      disk_.write_object(id, std::span<const uint8_t>(image.data(), 2 * bytes));
    }
    if (changed == 0) continue;  // read-only access: nothing to do
    stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
    if (home) {
      m->home_written = true;
    } else {
      retain(*m, out ? DiffRecord(rec) : std::move(rec));
    }
    if (out) out->push_back(std::move(rec));
  }
  if (!keep.empty()) {
    // Back onto the list for their owners' releases (appended after
    // whatever ensure_twin added while we were flushing).
    std::lock_guard g(twins_mu_);
    interval_twins_.insert(interval_twins_.end(), keep.begin(), keep.end());
  }
}

void CoherenceEngine::retain(ObjectMeta& m, DiffRecord&& rec) {
  // Coalesce into the standing interval record: keep the newest value
  // and stamp per word instead of appending one record per interval.
  const uint64_t before = m.local_writes.empty() ? 0 : m.local_writes.front().words();
  m.local_writes.push_back(std::move(rec));
  if (m.local_writes.size() > 1) {
    uint64_t redundant = 0;
    DiffRecord merged = merge_records(m.local_writes, /*since_epoch=*/0, &redundant);
    stats_.merge_redundant_words.fetch_add(redundant, std::memory_order_relaxed);
    m.local_writes.clear();
    m.local_writes.push_back(std::move(merged));
  }
  const uint64_t grew = m.local_writes.front().words() - before;  // merging never shrinks
  const uint64_t now = retained_words_.fetch_add(grew, std::memory_order_relaxed) + grew;
  uint64_t peak = stats_.diff_words_retained_peak.load(std::memory_order_relaxed);
  while (now > peak && !stats_.diff_words_retained_peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void CoherenceEngine::clear_writes(ObjectMeta& m) {
  if (!m.local_writes.empty()) {
    retained_words_.fetch_sub(m.local_writes.front().words(), std::memory_order_relaxed);
    m.local_writes.clear();
  }
  m.home_written = false;
}

DiffRecord CoherenceEngine::copy_writes(const ObjectMeta& m, uint32_t since_epoch) {
  const size_t bytes = word_bytes(m);
  std::vector<uint8_t> image;
  const uint8_t* data;
  const uint32_t* ts;
  if (m.map == MapState::kMapped) {
    data = committed_image(m);  // a cede may find the home mid-interval
    ts = space_.ctrl_words(m.dmm_offset);
  } else {
    LOTS_CHECK(m.on_disk, "home-written object has no local image");
    image.resize((m.twinned ? 3 : 2) * bytes);
    LOTS_CHECK(disk_.read_object(m.id, image), "copy_writes: disk image vanished");
    data = image.data();
    ts = reinterpret_cast<const uint32_t*>(image.data() + bytes);
  }
  DiffRecord rec;
  rec.object = m.id;
  diff_since({data, bytes}, ts, since_epoch, rec.word_idx, rec.word_val, rec.word_ts);
  for (uint32_t t : rec.word_ts) rec.epoch = std::max(rec.epoch, t);
  return rec;
}

DiffRecord CoherenceEngine::barrier_diff(const ObjectMeta& m, uint32_t since_epoch) {
  if (!m.home_written) return m.local_writes.empty() ? DiffRecord{} : m.local_writes.front();
  DiffRecord rec = copy_writes(m, since_epoch);
  if (m.local_writes.empty()) return rec;
  std::vector<DiffRecord> all{m.local_writes.front(), std::move(rec)};
  return merge_records(all, /*since_epoch=*/0);
}

void CoherenceEngine::retain_home_writes(ObjectMeta& m, uint32_t since_epoch) {
  if (!m.home_written) return;
  m.home_written = false;
  DiffRecord rec = copy_writes(m, since_epoch);
  if (!rec.word_idx.empty()) retain(m, std::move(rec));
}

std::vector<net::Message> CoherenceEngine::build_diff_batches(
    const std::map<int32_t, std::vector<DiffRecord>>& by_peer, NodeStats& stats) {
  std::vector<net::Message> msgs;
  msgs.reserve(by_peer.size());
  for (const auto& [peer, group] : by_peer) {
    if (group.empty()) continue;
    net::Message msg;
    msg.type = net::MsgType::kDiffBatch;
    msg.dst = peer;
    net::Writer w(msg.payload);
    w.u32(static_cast<uint32_t>(group.size()));
    uint64_t saved = 0;
    const size_t before = msg.payload.size();
    for (const DiffRecord& rec : group) {
      saved += encode_record(w, rec);
      stats.diff_words_sent.fetch_add(rec.words(), std::memory_order_relaxed);
    }
    stats.diff_payload_bytes.fetch_add(msg.payload.size() - before,
                                       std::memory_order_relaxed);
    stats.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
    stats.diff_batch_msgs.fetch_add(1, std::memory_order_relaxed);
    stats.diff_records_batched.fetch_add(group.size(), std::memory_order_relaxed);
    msgs.push_back(std::move(msg));
  }
  return msgs;
}

std::vector<net::Message> CoherenceEngine::build_broadcast_batches(
    std::span<const DiffRecord> records, int nprocs, int self_rank, NodeStats& stats) {
  std::vector<net::Message> msgs;
  if (records.empty() || nprocs <= 1) return msgs;
  std::vector<uint8_t> payload;
  net::Writer w(payload);
  w.u32(static_cast<uint32_t>(records.size()));
  uint64_t words = 0;
  uint64_t saved = 0;
  const size_t before = payload.size();
  for (const DiffRecord& rec : records) {
    saved += encode_record(w, rec);
    words += rec.words();
  }
  const uint64_t payload_bytes = payload.size() - before;
  msgs.reserve(static_cast<size_t>(nprocs - 1));
  for (int peer = 0; peer < nprocs; ++peer) {
    if (peer == self_rank) continue;
    net::Message msg;
    msg.type = net::MsgType::kDiffBatch;
    msg.dst = peer;
    msg.payload = payload;  // byte clone, not a record re-encode
    stats.diff_words_sent.fetch_add(words, std::memory_order_relaxed);
    stats.diff_payload_bytes.fetch_add(payload_bytes, std::memory_order_relaxed);
    stats.diff_bytes_saved.fetch_add(saved, std::memory_order_relaxed);
    stats.diff_batch_msgs.fetch_add(1, std::memory_order_relaxed);
    stats.diff_records_batched.fetch_add(records.size(), std::memory_order_relaxed);
    msgs.push_back(std::move(msg));
  }
  return msgs;
}

}  // namespace lots::core
