// Node lifecycle, the access check, the dynamic memory mapper
// (map-in / swap-out / eviction) and the object fetch protocol.
// Lock and barrier protocols live in locks.cpp / barrier.cpp; twin /
// flush / diff-application mechanics live in coherence.cpp.
//
// Locking discipline (see runtime.hpp): per-object work holds only the
// object's directory-shard lock; nothing here ever holds two shard
// locks at once or blocks on a network request with one held.
#include "core/runtime.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "cluster/bootstrap.hpp"
#include "common/threading.hpp"
#include "net/udp.hpp"

namespace lots::core {
namespace {

thread_local Node* tls_node = nullptr;
thread_local int tls_thread = 0;  ///< app-thread index within its node

}  // namespace

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(Config cfg) : cfg_(std::move(cfg)) {
  cfg_.validate();
  if (cfg_.disk_dir.empty()) {
    scratch_ = std::make_unique<TempDir>();
    cfg_.disk_dir = scratch_->path();
  }
  if (cfg_.cluster.fabric == FabricKind::kUdp) {
    // Multi-process worker: bind one ephemeral loopback UDP socket per
    // stripe first so the rendezvous can publish them, then learn rank +
    // peer endpoint tables from the coordinator and host exactly one
    // node on them. The fds are guarded until the transport adopts
    // them: a failed rendezvous must not leak sockets per construction
    // attempt.
    size_t nstripes = cfg_.cluster.net_stripes;
    if (nstripes == 0) {  // auto: match the directory sharding, capped by the machine
      const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
      nstripes = std::max<size_t>(1, std::min(cfg_.dir_shards, hw));
    }
    struct FdGuard {
      std::vector<int> fds;
      ~FdGuard() {
        for (const int fd : fds) {
          if (fd >= 0) ::close(fd);
        }
      }
    } guard;
    std::vector<uint16_t> udp_ports(nstripes, 0);
    guard.fds.reserve(nstripes);
    for (size_t s = 0; s < nstripes; ++s) {
      guard.fds.push_back(net::UdpTransport::bind_ephemeral(udp_ports[s]));
    }
    boot_ = std::make_unique<cluster::WorkerBootstrap>(cfg_.cluster.coord_port, udp_ports,
                                                       cfg_.cluster.boot_timeout_ms);
    LOTS_CHECK(boot_->nprocs() == cfg_.nprocs,
               "cluster bootstrap assigned nprocs=" + std::to_string(boot_->nprocs()) +
                   " but Config.nprocs=" + std::to_string(cfg_.nprocs));
    auto transport = std::make_unique<net::UdpTransport>(
        boot_->rank(), boot_->peer_stripe_ports(), guard.fds, cfg_.cluster.udp_window,
        cfg_.cluster.udp_rto_us);
    guard.fds.clear();  // adopted
    transport->set_fault(net::FaultSpec{
        .drop_prob = cfg_.cluster.drop_prob,
        .dup_prob = cfg_.cluster.dup_prob,
        .reorder_prob = cfg_.cluster.reorder_prob,
        // Per-rank streams: otherwise every worker would fault the same
        // positions in its send sequence.
        .seed = cfg_.cluster.fault_seed + static_cast<uint64_t>(boot_->rank()),
    });
    // Bounded retransmit: rounds beyond the cap declare the peer
    // unreachable instead of retrying forever (0 keeps the historical
    // retry-forever behavior).
    transport->set_max_retrans(cfg_.cluster.udp_max_retrans);
    net::UdpTransport* udp = transport.get();
    nodes_.push_back(std::make_unique<Node>(*this, boot_->rank(), std::move(transport)));
    Node* n = nodes_.back().get();
    // Failure detection, both directions: the transport's own verdict
    // (retransmit cap exceeded) uplinks a suspect for the coordinator to
    // arbitrate AND enters recovery locally; the coordinator's broadcast
    // (its own EOF observation, or another worker's verdict it endorsed)
    // arrives through the watcher thread below.
    udp->set_peer_unreachable_cb([this, n](int r) {
      boot_->send_suspect(r);
      n->on_peer_dead(r);
    });
    boot_->barrier_start();
    boot_->start_watch([n](int r) { n->on_peer_dead(r); });
    return;
  }
  fabric_ = std::make_unique<net::InProcFabric>(cfg_.nprocs, cfg_.net);
  nodes_.reserve(static_cast<size_t>(cfg_.nprocs));
  for (int r = 0; r < cfg_.nprocs; ++r) {
    nodes_.push_back(std::make_unique<Node>(*this, r, fabric_->open(r)));
  }
}

Runtime::~Runtime() {
  // Shutdown barrier BEFORE the nodes (and their transports) die: every
  // worker keeps serving fetches until the whole cluster reported done.
  if (boot_) boot_->report_done(0);
}

void Runtime::run(const std::function<void(int)>& fn) {
  struct Bind {
    Bind(Node* n, int t) {
      tls_node = n;
      tls_thread = t;
    }
    ~Bind() {
      tls_node = nullptr;
      tls_thread = 0;
    }
  };
  const int threads = cfg_.threads_per_node;
  if (!single_process()) {
    Node* n = nodes_.front().get();
    if (threads == 1) {  // historical path: the single rank runs inline
      Bind bind(n, 0);
      fn(n->rank());
      return;
    }
    run_spmd(threads, [&](int t) {
      Bind bind(n, t);
      fn(n->rank());
    });
    return;
  }
  // In-proc: worker w is app thread w % threads of rank w / threads.
  run_spmd(cfg_.nprocs * threads, [&](int w) {
    Bind bind(nodes_[static_cast<size_t>(w / threads)].get(), w % threads);
    fn(w / threads);
  });
}

Node& Runtime::self() {
  LOTS_CHECK(tls_node != nullptr, "Runtime::self() called outside run()");
  return *tls_node;
}

bool Runtime::in_node() { return tls_node != nullptr; }

int Runtime::thread_index() { return tls_thread; }

std::vector<Node*> Runtime::local_nodes() const {
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n.get());
  return out;
}

Node* Runtime::find_node(int rank) const {
  for (const auto& n : nodes_) {
    if (n->rank() == rank) return n.get();
  }
  return nullptr;
}

Node& Runtime::node(int rank) {
  Node* n = find_node(rank);
  LOTS_CHECK(n != nullptr, "Runtime::node(" + std::to_string(rank) +
                               "): rank is hosted by another process");
  return *n;
}

void Runtime::aggregate_stats(NodeStats& out) const {
  for (const auto& n : nodes_) out.accumulate(n->stats());
}

uint64_t Runtime::max_modeled_wait_us() const {
  uint64_t best = 0;
  for (const auto& n : nodes_) {
    const uint64_t w = n->stats_.net_wait_us.load() + n->stats_.disk_wait_us.load();
    best = std::max(best, w);
  }
  return best;
}

void Runtime::reset_stats() {
  for (auto& n : nodes_) {
    n->fold_alb_stats();  // pre-reset hits belong to the epoch being dropped
    n->stats_.reset();
  }
}

// ---------------------------------------------------------------------------
// Node lifecycle
// ---------------------------------------------------------------------------

Node::Node(Runtime& rt, int rank, std::unique_ptr<net::Transport> transport)
    : rt_(rt),
      rank_(rank),
      ep_((transport->set_stats(&stats_), std::move(transport))),
      space_(rt.config().dmm_bytes),
      dmm_(rt.config().dmm_bytes, rt.config().page_bytes),
      disk_(std::make_unique<storage::DiskStore>(rt.config().disk_dir, rank, rt.config().disk,
                                                 &stats_)),
      dir_(rt.config().dir_shards),
      coherence_(dir_, space_, *disk_, stats_, rank,
                 rt.config().protocol == ProtocolMode::kWriteUpdateOnly),
      fetch_(*this),
      group_(rt.config().threads_per_node),
      stmt_pins_(static_cast<size_t>(rt.config().threads_per_node)),
      albs_(rt.config().alb ? static_cast<size_t>(rt.config().threads_per_node) : 0),
      alb_on_(rt.config().alb),
      alb_mask_(static_cast<uint32_t>(rt.config().alb_size - 1)) {
  for (Alb& a : albs_) a.slots.resize(rt.config().alb_size);
  dir_.set_stats(&stats_);
  ep_.start([this](net::Message&& m) { dispatch(std::move(m)); });
}

void Node::fold_alb_stats() {
  std::lock_guard g(alb_fold_mu_);
  for (Alb& a : albs_) {
    const uint64_t h = a.hits.load(std::memory_order_relaxed);
    const uint64_t fresh = h - a.folded;
    if (!fresh) continue;
    a.folded = h;
    stats_.alb_hits.fetch_add(fresh, std::memory_order_relaxed);
    // access_checks stays the TOTAL check count: the locked path counts
    // itself inline, hits arrive here.
    stats_.access_checks.fetch_add(fresh, std::memory_order_relaxed);
  }
}

void Node::alb_insert(ObjectMeta& m, uint8_t* data) {
  AlbEntry& e =
      albs_[static_cast<size_t>(Runtime::thread_index())].slots[m.id & alb_mask_];
  if (e.id != kNullObject && e.id != m.id) {
    stats_.alb_evictions.fetch_add(1, std::memory_order_relaxed);
  }
  const std::atomic<uint64_t>* cell = dir_.generation_cell(m.id);
  // Both snapshots are taken under the object's shard lock; every bump
  // of this cell happens under the same lock, so relaxed loads are
  // ordered by the mutex.
  e = AlbEntry{m.id, data, &m, cell, cell->load(std::memory_order_relaxed),
               epoch_.load(std::memory_order_relaxed)};
}

void Node::stmt_pin(ObjectId id) {
  StmtPins& p = stmt_pins_[static_cast<size_t>(Runtime::thread_index())];
  p.ids[p.cursor++ % kStmtPinSlots].store(id, std::memory_order_relaxed);
}

bool Node::stmt_pinned(ObjectId id) const {
  for (const StmtPins& p : stmt_pins_) {
    for (const auto& slot : p.ids) {
      if (slot.load(std::memory_order_relaxed) == id) return true;
    }
  }
  return false;
}

Node::~Node() { ep_.stop(); }

const Config& Node::config() const { return rt_.config(); }

void Node::dispatch(net::Message&& m) {
  using net::MsgType;
  switch (m.type) {
    case MsgType::kObjFetch: fetch_.serve(std::move(m)); break;
    case MsgType::kSwapPut: on_swap_put(std::move(m)); break;
    case MsgType::kSwapGet: on_swap_get(std::move(m)); break;
    case MsgType::kSwapDrop: on_swap_drop(std::move(m)); break;
    case MsgType::kHomeMigrate: on_home_migrate(std::move(m)); break;
    case MsgType::kHomeMigrateAck: on_home_migrate_ack(std::move(m)); break;
    case MsgType::kDiffBatch: on_diff_batch(std::move(m)); break;
    case MsgType::kLockAcquire: on_lock_acquire(std::move(m)); break;
    case MsgType::kLockForward: on_lock_forward(std::move(m)); break;
    case MsgType::kLockGrant: on_lock_grant(std::move(m)); break;
    case MsgType::kLockRelease: on_lock_release(std::move(m)); break;
    case MsgType::kBarrierEnter: on_barrier_enter(std::move(m)); break;
    case MsgType::kBarrierDone: on_barrier_done(std::move(m)); break;
    case MsgType::kRunBarrierEnter: on_run_barrier_enter(std::move(m)); break;
    case MsgType::kReplicaUpdate: on_replica_update(std::move(m)); break;
    case MsgType::kRecoverEnter: on_recover_enter(std::move(m)); break;
    default:
      LOTS_CHECK(false, std::string("unexpected message type ") + net::to_string(m.type));
  }
}

// ---------------------------------------------------------------------------
// Object lifecycle
// ---------------------------------------------------------------------------

ObjectId Node::alloc_object(size_t bytes) {
  // Thread-collective: every app thread of this node executes the same
  // SPMD declaration sequence; they rendezvous here and the last arriver
  // creates the object ONCE, so the per-node ID counter stays in step
  // with every other node regardless of threads_per_node.
  return group_.collective([&]() -> ObjectId {
    if (bytes == 0) throw UsageError("alloc_object: zero size");
    if (bytes > rt_.config().dmm_bytes / 2) {
      // Paper §4.3: "the single object size is only limited by the size of
      // the DMM area". We cap at half so a twin-able working set always fits.
      throw UsageError("single object of " + std::to_string(bytes) +
                       " bytes exceeds the DMM area capacity");
    }
    // Round-robin initial homes, as in JIAJIA's page allocation; the mixed
    // protocol migrates them at barriers anyway. The home is computed
    // before create() so it is published under the shard lock: a remote
    // node running ahead in the SPMD sequence may already address this id.
    const int32_t home =
        static_cast<int32_t>(dir_.peek_next_id() % static_cast<uint32_t>(nprocs()));
    ObjectMeta& m = dir_.create(static_cast<uint32_t>(bytes), home);
    const ObjectId id = m.id;
    if (!rt_.config().large_object_space) {
      // LOTS-x: eager, permanent mapping; the app must fit in the process
      // space — which is the very limitation the paper removes.
      auto lk = dir_.lock_shard(id);
      m.inflight = true;
      InflightGuard guard{dir_, m, lk};
      map_in(m, lk);
    }
    return id;
  });
}

void Node::free_object(ObjectId id) {
  // Thread-collective, like alloc_object: the erase must not race a
  // sibling thread's access check, and the rendezvous guarantees no
  // sibling is inside one.
  group_.collective([&] {
    auto lk = dir_.lock_shard(id);
    ObjectMeta* m = dir_.find(id);
    if (!m) return;
    // drop_mapping covers every copy the object may hold: the DMM block,
    // the local disk image, AND a remotely parked image (the kSwapDrop
    // would otherwise leak the buddy's disk space forever). The erase
    // happens under the same lock hold — an unlock window here would let
    // an in-flight diff re-materialize a home disk image that the erase
    // then orphans.
    drop_mapping(*m, /*keep_disk_image=*/false);
    dir_.remove_locked(id);
  });
}

size_t Node::object_size(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  return dir_.get(id).size_bytes;
}

size_t Node::touch(std::span<const ObjectId> ids) { return fetch_.fetch_many(ids); }

// ---------------------------------------------------------------------------
// The access check (paper §3.3): fast path is a table lookup under the
// object's shard lock — disjoint objects never contend. Sibling app
// threads faulting the SAME object coordinate through the in-flight
// guard: exactly one runs the slow path, the rest park on the shard's
// condition variable and re-check when it settles.
// ---------------------------------------------------------------------------

void* Node::access(ObjectId id) {
  // Scope attribution: every access check stamps its thread into the
  // object's twin_writers, so this thread's release flushes this twin —
  // a lock-guarded write ships with its own lock's token even when a
  // sibling created the twin.
  const uint64_t tbit = twin_writer_bit(Runtime::thread_index());
  stmt_pin(id);  // hard-pin: no sibling eviction may unmap this object
                 // while our statement still holds its reference
  if (alb_on_) {
    // Lookaside hit: this thread validated the object earlier in the
    // SAME interval (epoch match) and nothing in its shard has left the
    // fast-path-eligible state since (generation match) — the shard
    // lock, hash lookup and twin bookkeeping are all redundant. The
    // seq_cst fence orders the pin store above BEFORE the generation
    // load: an evictor bumps the generation and THEN rechecks the pin
    // rings (alloc_dmm_or_evict), so either we see its bump and miss,
    // or it sees our pin and skips the victim — never both blind.
    Alb& alb = albs_[static_cast<size_t>(Runtime::thread_index())];
    const AlbEntry& e = alb.slots[id & alb_mask_];
    if (e.id == id && e.epoch == epoch_.load(std::memory_order_relaxed)) {
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (e.gen->load(std::memory_order_relaxed) == e.gen_val) {
        // Refresh the LRU stamp to the newest tick WITHOUT advancing
        // the clock (no RMW): hits keep hot objects looking recent,
        // and choose_victim's oldest-fallback covers the slow clock.
        e.meta->access_stamp.store(dir_.newest_stamp(), std::memory_order_relaxed);
        // Single-writer hit counter: folded into NodeStats::alb_hits /
        // access_checks by fold_alb_stats() — no lock-prefixed RMW here.
        alb.hits.store(alb.hits.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
        return e.data;
      }
    }
  }
  stats_.access_checks.fetch_add(1, std::memory_order_relaxed);
  auto lk = dir_.lock_shard(id);
  ObjectMeta& m = dir_.get(id);
  for (;;) {
    if (rt_.config().large_object_space) {
      m.access_stamp.store(dir_.stamp(), std::memory_order_relaxed);
    }
    if (!m.inflight && m.map == MapState::kMapped && m.share == ShareState::kValid &&
        m.pending.empty() && m.twinned) {
      if (m.prefetched) {
        // A mid-interval revalidation can leave a warmed object fully
        // fast-path eligible (still twinned, nothing pending): count
        // the hit here too, or the next barrier would book it wasted.
        m.prefetched = false;
        stats_.prefetch_hits.fetch_add(1, std::memory_order_relaxed);
      }
      m.twin_writers |= tbit;
      uint8_t* data = space_.dmm(m.dmm_offset);
      if (alb_on_) alb_insert(m, data);
      return data;
    }
    if (!m.inflight) break;
    stats_.inflight_waits.fetch_add(1, std::memory_order_relaxed);
    dir_.shard_cv(id).wait(lk);
  }

  // Slow path: bring the object in from disk and/or the network, with
  // the in-flight guard held. The helpers may drop `lk` around blocking
  // requests; each subsequent step re-examines the flag it owns, and the
  // guard keeps every other thread out of this object's mapping state
  // while `lk` is down.
  stats_.slow_path_checks.fetch_add(1, std::memory_order_relaxed);
  m.inflight = true;
  InflightGuard guard{dir_, m, lk};
  if (m.prefetched) {
    // First access to a copy the async fetch engine warmed: a hit when
    // the warm-up survived to be useful, wasted when something (an
    // invalidation, a dropped base) undid it first.
    m.prefetched = false;
    auto& counter = m.share == ShareState::kValid ? stats_.prefetch_hits : stats_.prefetch_wasted;
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  if (m.map != MapState::kMapped) map_in(m, lk);
  if (m.share == ShareState::kInvalid) fetch_.fetch_object(m, lk);
  if (!m.pending.empty()) coherence_.apply_pending(m);
  if (!m.twinned) coherence_.ensure_twin(m, Runtime::thread_index());
  m.twin_writers |= tbit;
  uint8_t* data = space_.dmm(m.dmm_offset);
  if (alb_on_) alb_insert(m, data);
  return data;
}

// ---------------------------------------------------------------------------
// Dynamic memory mapper
// ---------------------------------------------------------------------------

std::vector<uint8_t> Node::take_remote(ObjectMeta& m, std::unique_lock<std::mutex>& lk) {
  // §5 remote swapping: pull the parked image back from the buddy's
  // disk and drop the buddy's copy.
  net::Message req;
  req.type = net::MsgType::kSwapGet;
  req.dst = swap_buddy();
  // All swap traffic for one parked image shares a flow: a one-way
  // kSwapDrop must never overtake (or be overtaken by) a kSwapPut for
  // the same key on a striped transport.
  req.flow = remote_key(rank_, m.id);
  net::Writer w(req.payload);
  w.u64(remote_key(rank_, m.id));
  lk.unlock();
  net::Message reply = ep_.request(std::move(req));
  net::Message drop;
  drop.type = net::MsgType::kSwapDrop;
  drop.dst = swap_buddy();
  drop.flow = remote_key(rank_, m.id);
  net::Writer dw(drop.payload);
  dw.u64(remote_key(rank_, m.id));
  ep_.send(std::move(drop));
  lk.lock();
  net::Reader r(reply.payload);
  auto image = r.bytes_view();
  m.on_remote = false;
  stats_.remote_swap_gets.fetch_add(1, std::memory_order_relaxed);
  return {image.begin(), image.end()};
}

storage::ImageSections Node::dmm_sections(const ObjectMeta& m) const {
  return {space_.dmm(m.dmm_offset), space_.ctrl_words(m.dmm_offset),
          m.twinned ? space_.twin(m.dmm_offset) : nullptr, word_bytes(m)};
}

uint8_t* Node::map_in(ObjectMeta& m, std::unique_lock<std::mutex>& lk) {
  LOTS_CHECK(m.map == MapState::kUnmapped, "map_in: already mapped");
  std::vector<uint8_t> parked;
  if (m.on_remote) parked = take_remote(m, lk);
  m.dmm_offset = alloc_dmm_or_evict(m, lk);
  m.map = MapState::kMapped;
  // The block's pages may still hold an evicted object's sections: every
  // section the copy uses is overwritten below, before any use.
  const storage::ImageSections s = dmm_sections(m);
  if (!parked.empty()) {
    LOTS_CHECK(storage::DiskImage::from_blob(parked, s) == m.twinned,
               "map_in: parked image twin mismatch");
  } else if (m.on_disk) {
    // Straight from the extent into the DMM regions. The extent stays
    // reserved: the next swap-out rewrites it in place.
    LOTS_CHECK(disk_->read_image(m.id, s), "map_in: disk image vanished");
    m.on_disk = false;  // the DMM copy is now the single source of truth
  } else {
    std::memset(s.data, 0, s.bytes);
    std::memset(s.stamps, 0, s.bytes);
  }
  return s.data;
}

size_t Node::alloc_dmm_or_evict(ObjectMeta& target, std::unique_lock<std::mutex>& lk) {
  const size_t need = word_bytes(target);
  for (;;) {
    if (auto off = dmm_.alloc(need)) return *off;
    if (!rt_.config().large_object_space) {
      throw UsageError(
          "DMM area exhausted in LOTS-x mode: the application does not fit in the "
          "process space (enable large_object_space)");
    }
    // Collect eviction candidates: every settled mapped object except
    // the one being brought in; in-flight objects belong to a sibling
    // thread's transition and are skipped. The pin window (recent access
    // stamps) protects the current statements' operands — widened by the
    // app-thread count, since N threads advance the pin clock N times
    // faster. The target's shard lock is released first so the scan
    // (which takes each shard lock in turn) never nests two shard locks;
    // the target itself cannot change under us — we hold its in-flight
    // guard.
    lk.unlock();
    std::vector<mem::VictimCandidate> cands;
    bool saw_inflight = false;
    dir_.for_each([&](ObjectMeta& m) {
      if (m.map != MapState::kMapped || m.id == target.id) return;
      if (m.inflight) {
        saw_inflight = true;  // a sibling is mid-transition on it
        return;
      }
      // Statement pins are a hard exclusion (any thread's outstanding
      // access reference); the recency window below stays as the
      // paper's soft LRU protection on top.
      if (stmt_pinned(m.id)) return;
      cands.push_back({m.id, word_bytes(m), m.access_stamp.load(std::memory_order_relaxed)});
    });
    mem::EvictionConfig ecfg;
    ecfg.pin_window *= static_cast<uint64_t>(app_threads());
    auto victim = mem::choose_victim(cands, need, dir_.newest_stamp(), ecfg);
    if (!victim) {
      if (saw_inflight) {
        // Every usable victim is transiently owned by an in-flight
        // transition. If those transitions are the calling thread's OWN
        // pipelined fetch window, nobody else will ever settle them —
        // drain the window (releasing its guards) before rescanning.
        // Otherwise a sibling owns them and this is a moment, not a
        // dead end: yield and rescan.
        stats_.evict_races.fetch_add(1, std::memory_order_relaxed);
        if (!FetchEngine::drain_active_window()) std::this_thread::yield();
        lk.lock();
        continue;
      }
      lk.lock();  // mapper helpers throw only while holding lk
      throw UsageError(
          "cannot evict: every mapped object is pinned by the current statement "
          "(paper §5 limitation — enlarge the DMM area)");
    }
    {
      auto vlk = dir_.lock_shard(static_cast<ObjectId>(*victim));
      ObjectMeta& v = dir_.get(static_cast<ObjectId>(*victim));
      // Re-validate under the victim's shard lock: a sibling thread may
      // have begun evicting or touching it since the unlocked scan.
      // Defeat ALB entries for the victim, THEN recheck the statement
      // pins: paired with the hit path's pin-store -> fence -> generation
      // -load order, the bump-fence-recheck below guarantees that a
      // lock-free hit racing this eviction either misses (it saw the
      // bump) or left a pin this recheck sees (store-buffer argument —
      // the two seq_cst fences forbid both sides reading the old value).
      // A pin that appeared since the unlocked scan sampled the rings
      // would otherwise be unmapped under a live statement reference.
      dir_.bump_generation(static_cast<ObjectId>(*victim));
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (v.inflight || v.map != MapState::kMapped || stmt_pinned(v.id)) {
        stats_.evict_races.fetch_add(1, std::memory_order_relaxed);
      } else {
        v.inflight = true;
        InflightGuard vguard{dir_, v, vlk};
        // The freed block is about to be refilled by an incoming copy:
        // its pages stay resident instead of being discarded and
        // re-faulted.
        evict(v, vlk, /*keep_pages=*/true);
        stats_.evictions.fetch_add(1, std::memory_order_relaxed);
      }
    }
    lk.lock();
  }
}

void Node::evict(ObjectMeta& m, std::unique_lock<std::mutex>& lk, bool keep_pages) {
  if (m.share == ShareState::kValid || m.twinned) {
    swap_out(m, lk, keep_pages);  // dirty objects keep their twin inside the disk image
  } else {
    drop_mapping(m, /*keep_disk_image=*/false, keep_pages);  // stale diff base: cheaper to refetch
  }
}

void Node::swap_out(ObjectMeta& m, std::unique_lock<std::mutex>& lk, bool keep_pages) {
  LOTS_CHECK(m.map == MapState::kMapped, "swap_out: not mapped");
  const size_t bytes = word_bytes(m);
  if (m.twinned && std::memcmp(space_.dmm(m.dmm_offset), space_.twin(m.dmm_offset), bytes) == 0) {
    // Reader twin: identical to the data, so it carries no pending-write
    // information (incoming words are mirrored into both). Drop it: the
    // image skips the twin section, and the next access re-twins. An
    // untwinned copy is also what may spill remotely (flush_interval
    // skips untwinned objects).
    m.twinned = false;
    m.twin_writers = 0;
  }
  const storage::DiskImage image(dmm_sections(m));
  const Config& cfg = rt_.config();
  const bool local_full = cfg.disk_capacity_bytes > 0 &&
                          disk_->stored_bytes_after(m.id, image.size()) > cfg.disk_capacity_bytes;
  if (local_full && cfg.remote_swap && m.home != rank_ && !m.twinned && m.pending.empty()) {
    // §5 remote swapping: spill to the buddy's disk. Restricted to
    // clean, non-home objects so the service thread never has to chase
    // a remote image synchronously (homes answer fetches from local
    // state only). Unmap *before* releasing the lock so a concurrent
    // incoming diff lands in `pending` rather than the dying mapping.
    const size_t off = m.dmm_offset;
    m.map = MapState::kUnmapped;
    m.dmm_offset = 0;
    // The mapping dies here, BEFORE the lock is released around the spill
    // request: defeat cached ALB pointers in the same breath.
    dir_.bump_generation(m.id);
    net::Message req;
    req.type = net::MsgType::kSwapPut;
    req.dst = swap_buddy();
    req.flow = remote_key(rank_, m.id);  // same FIFO as this key's drops
    net::Writer w(req.payload);
    w.u64(remote_key(rank_, m.id));
    w.bytes(image.to_blob());
    lk.unlock();
    ep_.request(std::move(req));  // acked: the image is durable remotely
    lk.lock();
    if (!keep_pages) space_.discard(off, bytes);
    dmm_.free(off);
    disk_->free_object(m.id);  // a reserved local extent is not needed
    m.on_remote = true;
    stats_.remote_swap_puts.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  LOTS_CHECK(!local_full || cfg.remote_swap || cfg.disk_capacity_bytes == 0,
             "local disk budget exhausted and remote swapping is disabled");
  disk_->write_image(m.id, image);
  m.on_disk = true;
  drop_mapping(m, /*keep_disk_image=*/true, keep_pages);
}

void Node::drop_mapping(ObjectMeta& m, bool keep_disk_image, bool keep_pages) {
  if (m.map == MapState::kMapped) {
    dir_.bump_generation(m.id);  // defeat cached ALB pointers first
    if (!keep_pages) space_.discard(m.dmm_offset, word_bytes(m));
    dmm_.free(m.dmm_offset);
    m.map = MapState::kUnmapped;
    m.dmm_offset = 0;
  }
  if (!keep_disk_image) {
    // The extent goes too, even when a mapped copy had only reserved it.
    disk_->free_object(m.id);
    m.on_disk = false;
    if (m.on_remote) {
      net::Message drop;
      drop.type = net::MsgType::kSwapDrop;
      drop.dst = swap_buddy();
      drop.flow = remote_key(rank_, m.id);  // same FIFO as this key's puts
      net::Writer w(drop.payload);
      w.u64(remote_key(rank_, m.id));
      ep_.send(std::move(drop));
      m.on_remote = false;
    }
    m.valid_epoch = 0;  // no diff base left: next fetch is a full copy
  }
}

void Node::force_swap_out(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  ObjectMeta& m = dir_.get(id);
  // Wait out a sibling thread's transition, then hold the guard
  // ourselves: swap_out may drop the shard lock around a remote spill,
  // and a concurrent access() must not observe the half-unmapped state.
  while (m.inflight) dir_.shard_cv(id).wait(lk);
  if (m.map != MapState::kMapped) return;
  m.inflight = true;
  InflightGuard guard{dir_, m, lk};
  evict(m, lk, /*keep_pages=*/false);
}

bool Node::is_mapped(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  ObjectMeta& m = dir_.get(id);
  while (m.inflight) dir_.shard_cv(id).wait(lk);  // report settled state only
  return m.map == MapState::kMapped;
}

bool Node::is_valid(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  ObjectMeta& m = dir_.get(id);
  while (m.inflight) dir_.shard_cv(id).wait(lk);
  return m.share == ShareState::kValid;
}

int32_t Node::home_of(ObjectId id) {
  auto lk = dir_.lock_shard(id);
  return dir_.get(id).home;
}

void Node::set_home_for_test(ObjectId id, int32_t home) {
  auto lk = dir_.lock_shard(id);
  dir_.get(id).home = home;
  dir_.bump_generation(id);  // home write: defeat stale ALB entries
}

// ---------------------------------------------------------------------------
// Object fetch: requester demand path, the pipelined window, and the
// home-side service all live in the FetchEngine (core/fetch.cpp).
// ---------------------------------------------------------------------------
// Batched diff delivery (home side or write-update broadcast receiver):
// one message carries every record the sender owed this node for one
// sync operation. Records are applied under their own shard locks, one
// at a time — a batch touching many objects still never blocks an
// unrelated access check for long.
// ---------------------------------------------------------------------------

void Node::on_diff_batch(net::Message&& m) {
  net::Reader r(m.payload);
  const uint32_t nrecs = r.u32();
  for (uint32_t i = 0; i < nrecs; ++i) {
    DiffRecord rec = decode_record(r);
    auto lk = dir_.lock_shard(rec.object);
    ObjectMeta* obj = dir_.find(rec.object);
    if (!obj) continue;
    coherence_.apply_delivery(*obj, std::move(rec), rank_);
  }
  net::Message ack;
  ack.type = net::MsgType::kReply;
  ep_.reply(m, std::move(ack));
}

// ---------------------------------------------------------------------------
// §5 remote swapping (buddy side, service thread — purely local disk
// work; the store is internally synchronized, no node state involved)
// ---------------------------------------------------------------------------

void Node::on_swap_put(net::Message&& m) {
  net::Reader r(m.payload);
  const uint64_t key = r.u64();
  auto image = r.bytes_view();
  disk_->write_object(key, image);
  net::Message ack;
  ack.type = net::MsgType::kReply;
  ep_.reply(m, std::move(ack));
}

void Node::on_swap_get(net::Message&& m) {
  net::Reader r(m.payload);
  const uint64_t key = r.u64();
  net::Message resp;
  resp.type = net::MsgType::kReply;
  {
    const auto size = disk_->size_of(key);
    LOTS_CHECK(size.has_value(), "remote swap image vanished");
    std::vector<uint8_t> image(*size);
    LOTS_CHECK(disk_->read_object(key, image), "remote swap image unreadable");
    net::Writer w(resp.payload);
    w.bytes(image);
  }
  ep_.reply(m, std::move(resp));
}

void Node::on_swap_drop(net::Message&& m) {
  net::Reader r(m.payload);
  const uint64_t key = r.u64();
  disk_->free_object(key);
}

}  // namespace lots::core
