// ooc_sweep: an object space four times the ranks' combined DMM windows,
// swept row by row through the real disk store (no DiskModel delay).
//
// Each rank owns the quarter of the 256 KB row objects it is the home of,
// and is their only writer. Each sweep visits every row of the band in order and
// read-modify-writes all of its words through Pointer element accesses.
// The band is four times the rank's window, so every visit faults: the
// first access swaps the row in from disk and evicts (and swaps out) an
// older one. No locks are taken. As in any LOTS program, a barrier
// publishes the writes: one ends set-up and one ends every round, and its
// flush diffs each written row, from disk if the row was swapped out.
// One op is one row visit. The ranks take turns, two sweeps each per
// round: ranks share no rows, so running them at once would add only
// contention for memory bandwidth between the ranks and other tenants of
// the host, which made the visit rate spread by 20% from run to run.
//
// A visit adds inc(row, i) to word i, so after N visits a row's words are
// init + N * inc; each rank checks a checksum of every row it owns
// against that closed form once the run is over.
#include <algorithm>
#include <atomic>
#include <memory>

#include "harness.hpp"

namespace lotsbench {
namespace {

using lots::core::Pointer;
using lots::core::Runtime;

struct Geometry {
  size_t rows = 512;
  size_t words = 64 * 1024;  ///< uint32 words per row: 256 KB
  size_t dmm_bytes = 8u << 20;
  int sweeps_per_round = 2;  // 1024 visits: 10 lie beyond a round's p99
};

Geometry geometry(const Options& opts) {
  Geometry g;
  if (opts.tiny) {
    g.rows = 128;
    g.words = 8 * 1024;
    g.dmm_bytes = 256u << 10;
  }
  return g;
}

uint32_t init_word(uint64_t seed, size_t row, size_t i) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (row << 32 | i);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return static_cast<uint32_t>(x >> 32);
}

uint32_t inc(size_t row, size_t i) { return static_cast<uint32_t>((row + 1) * (i | 1)); }

uint64_t checksum(const uint32_t* words, size_t n) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (size_t i = 0; i < n; ++i) h = (h ^ words[i]) * 0x100000001B3ull;
  return h;
}

/// Hands the sweep from rank to rank in order.
class Turns {
 public:
  explicit Turns(int ranks) : ranks_(ranks) {}
  void wait(int rank) {
    for (int t = turn_.load(); t != rank; t = turn_.load()) turn_.wait(t);
  }
  void pass(int rank) {
    turn_.store((rank + 1) % ranks_);
    turn_.notify_all();
  }

 private:
  int ranks_;
  std::atomic<int> turn_{0};
};

struct Band {
  std::vector<size_t> owned;  ///< row indices, ascending
  uint64_t sweeps = 0;
  OpSamples samples;

  void sweep(const std::vector<Pointer<uint32_t>>& rows, size_t words, uint64_t seq, bool traced) {
    for (const size_t k : owned) {
      const Pointer<uint32_t>& row = rows[k];
      const uint64_t t0 = now_ns();
      const uint32_t first = row[0];  // the fault: swap-in plus eviction
      const uint64_t t1 = now_ns();
      row[0] = first + inc(k, 0);
      for (size_t i = 1; i < words; ++i) row[i] += inc(k, i);
      const uint64_t t2 = now_ns();
      samples.add(static_cast<double>(t2 - t0) / 1e3);
      if (traced) {
        const uint64_t root = trace::new_id();
        const uint64_t req = seq << 32 | k;
        trace::record("mem.fault", trace::new_id(), root, req, t0, t1);
        trace::record("access.row_scan", trace::new_id(), root, req, t1, t2);
        trace::record("ooc.visit", root, 0, req, t0, t2);
      }
    }
    ++sweeps;
  }
};

}  // namespace

RunData run_ooc(const Options& opts) {
  const Geometry g = geometry(opts);
  lots::Config cfg = base_config(opts);
  cfg.dmm_bytes = g.dmm_bytes;

  RunData out;
  out.nprocs = cfg.nprocs;
  const auto p = static_cast<size_t>(cfg.nprocs);
  Runtime rt(cfg);
  std::vector<Pointer<uint32_t>> rows;
  std::vector<std::unique_ptr<Band>> bands;
  for (size_t r = 0; r < p; ++r) bands.push_back(std::make_unique<Band>());
  rt.run([&](int rank) {
    std::vector<Pointer<uint32_t>> mine(g.rows);
    for (auto& row : mine) row.alloc(g.words);
    if (rank == 0) rows = mine;
    // A rank owns the rows it is the initial home of, so no home has
    // to migrate and no row image crosses the network.
    Band& b = *bands[static_cast<size_t>(rank)];
    for (size_t k = 0; k < g.rows; ++k) {
      if (lots::Runtime::self().home_of(mine[k].id()) == rank) b.owned.push_back(k);
    }
    for (const size_t k : b.owned) {
      for (size_t i = 0; i < g.words; ++i) mine[k][i] = init_word(opts.seed, k, i);
    }
    lots::barrier();  // publish the initial rows
  });
  out.setup_s = since_start_s();
  if (opts.setup_only) return out;

  Rounds rounds(cfg.nprocs, opts, rt, out, g.rows * static_cast<uint64_t>(g.sweeps_per_round));
  Turns turns(cfg.nprocs);
  rt.run([&](int rank) {
    Band& b = *bands[static_cast<size_t>(rank)];
    while (rounds.next()) {
      const bool traced = rounds.traced();
      b.samples.start_round(traced);
      turns.wait(rank);
      for (int s = 0; s < g.sweeps_per_round; ++s) b.sweep(rows, g.words, b.sweeps, traced);
      turns.pass(rank);
      lots::barrier();  // publish the round's writes
    }
  });
  out.peak_rss_mb = peak_rss_mb();

  // Every rank checks the rows it owns against the closed form.
  std::vector<uint64_t> bad(p, 0);
  rt.run([&](int rank) {
    const Band& b = *bands[static_cast<size_t>(rank)];
    std::vector<uint32_t> got(g.words), want(g.words);
    for (const size_t k : b.owned) {
      for (size_t i = 0; i < g.words; ++i) {
        got[i] = rows[k][i];
        want[i] = init_word(opts.seed, k, i) + static_cast<uint32_t>(b.sweeps) * inc(k, i);
      }
      if (checksum(got.data(), g.words) != checksum(want.data(), g.words)) {
        ++bad[static_cast<size_t>(rank)];
      }
    }
  });
  out.attempted = out.ops[0] + out.ops[1];
  uint64_t bad_rows = 0;
  for (const uint64_t n : bad) bad_rows += n;
  if (bad_rows != 0) {
    out.fail("ooc_sweep: " + std::to_string(bad_rows) + " row checksums differ after the sweeps");
    out.failed = bad_rows;
  }

  std::vector<const OpSamples*> samples;
  for (const auto& b : bands) samples.push_back(&b->samples);
  merge_samples(out, samples);
  out.spans = trace::collect();
  return out;
}

}  // namespace lotsbench
