// kv_uniform / kv_zipf: closed-loop clients driving a KvStore through
// the request-queue execution mode.
//
// One client thread per rank pushes one verb at a time onto its rank's
// WorkQueue and waits for the reply; the rank's single app thread runs
// the verb inside lots::serve(). Keys are dense integers [0, keys)
// range-sharded over the ranks. A client reads any key but writes only
// the keys it owns (key % clients == its id), so it can check every
// reply against its own model:
//  * put(own k) returns exactly model version + 1;
//  * get(own k) returns exactly the model's (live, version, value);
//  * any (key, version, value) seen satisfies value == value_for(key,
//    version), and a key's version never runs backwards for a reader;
//  * a scan holds every live own key of its range with the model's
//    version, and no erased own key.
// Set-up prefills every key once, so each shard lock's diff chain is at
// its steady length before the first timed op.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "harness.hpp"
#include "service/kv.hpp"

namespace lotsbench {
namespace {

using lots::core::Runtime;
using lots::core::WorkQueue;
using lots::service::KvConfig;
using lots::service::KvStore;
using lots::service::ScanItem;
using lots::service::Sharder;

struct Geometry {
  uint64_t keys = 4096;
  uint32_t shards = 32;
  uint64_t ops_per_round = 1250;  ///< per client: 5000 per round, 50 beyond its p99
  uint64_t read_pct = 80;
  double zipf = 0.0;
};

Geometry geometry(const Options& opts, bool zipf) {
  Geometry g;
  if (zipf) {
    g.read_pct = 50;
    g.zipf = 0.99;
  }
  if (opts.tiny) {
    g.keys = 256;
    g.shards = 8;
    g.ops_per_round = 300;
  }
  return g;
}

/// Zipfian ranks (Gray et al. incremental form); rank 0 is the hottest.
/// theta 0 is uniform.
class ZipfGen {
 public:
  ZipfGen(uint64_t n, double theta) : n_(n), theta_(theta) {
    if (theta_ <= 0.0) return;
    for (uint64_t i = 1; i <= n_; ++i) zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  }
  uint64_t next(lots::Rng& rng) const {
    if (theta_ <= 0.0) return rng.below(n_);
    const double u = rng.unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<uint64_t>(static_cast<double>(n_) *
                                         std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0.0, alpha_ = 0.0, eta_ = 0.0;
};

/// Every writer derives the stored value from (key, version), so any
/// reader can validate any triple it sees.
uint64_t value_for(uint64_t key, uint64_t version) {
  uint64_t x = key * 0x9E3779B97F4A7C15ull ^ version * 0xC2B2AE3D27D4EB4Full;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  return x ^ (x >> 31);
}

Sharder build_sharder(const Geometry& g, int nprocs) {
  Sharder sh;
  for (uint32_t s = 1; s < g.shards; ++s) {
    sh.insert_split(g.keys * s / g.shards, static_cast<int>(s) % nprocs);
  }
  return sh;
}

/// Client <-> app thread completion rendezvous for one in-flight verb.
struct Reply {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  uint64_t signal_ns = 0;

  void signal() {
    std::lock_guard lk(m);
    done = true;
    signal_ns = now_ns();
    cv.notify_one();
  }
  uint64_t wait() {
    std::unique_lock lk(m);
    cv.wait(lk, [&] { return done; });
    done = false;
    return signal_ns;
  }
};

struct OwnedKey {
  uint64_t version = 0;
  bool live = false;
};

enum class Verb { kGet, kPut, kErase, kScan };

const char* verb_span(Verb v) {
  switch (v) {
    case Verb::kGet: return "service.get";
    case Verb::kPut: return "service.put";
    case Verb::kErase: return "service.erase";
    case Verb::kScan: return "service.scan";
  }
  return "service.verb";
}

class Client {
 public:
  Client(KvStore& kv, WorkQueue& q, const Geometry& g, uint64_t seed, uint64_t id, uint64_t clients)
      : kv_(kv),
        q_(q),
        g_(g),
        id_(id),
        clients_(clients),
        rng_(seed * 0x5851F42D4C957F2Dull + id * 0x14057B7EF767814Full + 1),
        read_pick_(g.keys, g.zipf),
        write_pick_((g.keys - id + clients - 1) / clients, g.zipf),
        model_((g.keys - id + clients - 1) / clients, OwnedKey{1, true}),
        floor_(g.keys, 0) {}

  /// Runs rounds of fixed work until the run is over.
  void run(Rounds& rounds) {
    while (rounds.next()) {
      samples.start_round(rounds.traced());
      for (uint64_t i = 0; i < g_.ops_per_round; ++i) one_op();
    }
  }

  OpSamples samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

 private:
  bool own(uint64_t key) const { return key % clients_ == id_; }
  OwnedKey& model(uint64_t key) { return model_[key / clients_]; }

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (op_failed_) return;  // one failure per op
    op_failed_ = true;
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
  void check_floor(uint64_t key, uint64_t version) {
    check(version >= floor_[key], "version ran backwards for key " + std::to_string(key));
    floor_[key] = std::max(floor_[key], version);
  }

  /// Pushes `verb` and waits for it; returns the op's latency in µs.
  template <typename Fn>
  double call(Verb verb, Fn&& body) {
    const bool traced = trace::enabled();
    const uint64_t root = traced ? trace::new_id() : 0;
    const uint64_t req = id_ << 40 | attempted;
    uint64_t end_ns = 0;
    std::string error;
    const uint64_t t0 = now_ns();
    q_.push([&, verb, root, req, t0, traced] {
      const uint64_t start = now_ns();
      try {
        body();
      } catch (const std::exception& e) {
        error = e.what();
      }
      end_ns = now_ns();
      if (traced) {
        trace::record("workqueue.wait", trace::new_id(), root, req, t0, start);
        trace::record(verb_span(verb), trace::new_id(), root, req, start, end_ns);
      }
      reply_.signal();
    });
    const uint64_t signal_ns = reply_.wait();
    const uint64_t t1 = now_ns();
    if (traced) {
      trace::record("workqueue.reply", trace::new_id(), root, req, signal_ns, t1);
      trace::record("kv.op", root, 0, req, t0, t1);
    }
    check(error.empty(), "verb threw: " + error);
    return static_cast<double>(t1 - t0) / 1e3;
  }

  void one_op() {
    op_failed_ = false;
    const bool is_read = rng_.below(100) < g_.read_pct;
    double us = 0;
    if (is_read && rng_.below(16) == 0) {
      const uint64_t lo = read_pick_.next(rng_);
      const uint64_t hi = std::min(g_.keys - 1, lo + 63);
      std::vector<ScanItem> items;
      us = call(Verb::kScan, [&] { items = kv_.scan(lo, hi); });
      for (const ScanItem& it : items) {
        check(it.value == value_for(it.key, it.version),
              "scan: value/version mismatch at key " + std::to_string(it.key));
        check_floor(it.key, it.version);
        if (own(it.key)) {
          const OwnedKey& m = model(it.key);
          check(m.live && m.version == it.version,
                "scan: own key " + std::to_string(it.key) + " inconsistent with model");
        }
      }
      // Completeness: every live own key of [lo, hi] appeared.
      size_t pos = 0;
      for (uint64_t k = lo + (id_ + clients_ - lo % clients_) % clients_; k <= hi; k += clients_) {
        while (pos < items.size() && items[pos].key < k) ++pos;
        const bool present = pos < items.size() && items[pos].key == k;
        check(present == model(k).live,
              "scan: own key " + std::to_string(k) + (present ? " erased but listed" : " missing"));
      }
    } else if (is_read) {
      const uint64_t key = read_pick_.next(rng_);
      lots::service::GetResult r;
      us = call(Verb::kGet, [&] { r = kv_.get(key); });
      check(!r.found || r.value == value_for(key, r.version),
            "get: value/version mismatch at key " + std::to_string(key));
      if (r.version != 0) check_floor(key, r.version);
      if (own(key)) {
        const OwnedKey& m = model(key);
        check(r.found == m.live && r.version == m.version,
              "get: own key " + std::to_string(key) + " lost a write");
      }
    } else {
      const uint64_t key = id_ + clients_ * write_pick_.next(rng_);
      OwnedKey& m = model(key);
      if (m.live && rng_.below(8) == 0) {
        bool erased = false;
        us = call(Verb::kErase, [&] { erased = kv_.erase(key); });
        check(erased, "erase: own live key " + std::to_string(key) + " was absent");
        ++m.version;
        m.live = false;
      } else {
        const uint64_t want = m.version + 1;
        uint64_t got = 0;
        us = call(Verb::kPut, [&] { got = kv_.put(key, value_for(key, want)); });
        check(got == want, "put: version skew at key " + std::to_string(key));
        m.version = want;
        m.live = true;
      }
    }
    samples.add(us);
    ++attempted;
  }

  KvStore& kv_;
  WorkQueue& q_;
  const Geometry& g_;
  uint64_t id_;
  uint64_t clients_;
  lots::Rng rng_;
  ZipfGen read_pick_;
  ZipfGen write_pick_;
  std::vector<OwnedKey> model_;  ///< indexed by key / clients
  std::vector<uint64_t> floor_;  ///< highest version seen, per key
  Reply reply_;
  bool op_failed_ = false;
};

}  // namespace

RunData run_kv(const Options& opts, bool zipf) {
  const Geometry g = geometry(opts, zipf);
  lots::Config cfg = base_config(opts);
  cfg.dmm_bytes = 32u << 20;
  KvConfig kcfg;
  kcfg.shards = g.shards;
  // Tombstones keep their slot, so size buckets for every key with slack.
  kcfg.slots_per_shard = 2 * g.keys / g.shards + 16;
  const Sharder sharder = build_sharder(g, cfg.nprocs);
  // No more load threads than CPUs: one client per rank, at most nproc.
  const auto clients = static_cast<uint64_t>(
      std::clamp<int>(static_cast<int>(std::thread::hardware_concurrency()), 1, cfg.nprocs));

  RunData out;
  out.nprocs = cfg.nprocs;
  Runtime rt(cfg);
  KvStore kv;
  std::atomic<uint64_t> prefill_skew{0};
  rt.run([&](int rank) {
    kv.open(kcfg, sharder);
    // Prefill: client c's rank writes version 1 of every key c owns.
    if (static_cast<uint64_t>(rank) < clients) {
      for (uint64_t k = static_cast<uint64_t>(rank); k < g.keys; k += clients) {
        if (kv.put(k, value_for(k, 1)) != 1) prefill_skew.fetch_add(1);
      }
    }
  });
  out.setup_s = since_start_s();
  if (prefill_skew.load() != 0) out.fail("prefill: a key was not at version 1");
  if (opts.setup_only) return out;

  std::vector<std::unique_ptr<WorkQueue>> queues;
  std::vector<std::unique_ptr<Client>> cs;
  for (int r = 0; r < cfg.nprocs; ++r) queues.push_back(std::make_unique<WorkQueue>());
  for (uint64_t c = 0; c < clients; ++c) {
    cs.push_back(std::make_unique<Client>(kv, *queues[c], g, opts.seed, c, clients));
  }
  Rounds rounds(static_cast<int>(clients), opts, rt, out, g.ops_per_round * clients);
  std::atomic<uint64_t> running{clients};
  rt.run([&](int rank) {
    std::thread client;
    if (static_cast<uint64_t>(rank) < clients) {
      client = std::thread([&, rank] {
        cs[static_cast<size_t>(rank)]->run(rounds);
        // The last client out closes every queue, so ranks without a
        // client keep serving until the load is over.
        if (running.fetch_sub(1) == 1) {
          for (auto& q : queues) q->close();
        }
      });
    }
    lots::serve(*queues[static_cast<size_t>(rank)]);
    if (client.joinable()) client.join();
  });
  out.peak_rss_mb = peak_rss_mb();

  std::vector<const OpSamples*> samples;
  for (const auto& c : cs) {
    samples.push_back(&c->samples);
    out.attempted += c->attempted;
    out.failed += c->failed;
    if (!c->first_failure.empty() && out.correct) {
      out.correct = false;
      out.failure = c->first_failure;
    }
  }
  merge_samples(out, samples);
  out.spans = trace::collect();
  return out;
}

}  // namespace lotsbench
