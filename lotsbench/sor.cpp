// sor: red-black SOR, one shared object per grid row, two lots::barrier()
// calls per iteration.
//
// Rank r owns a contiguous band of rows and is their only writer. Each
// colour phase is: barrier (publishes the other colour's writes and
// invalidates the halo rows), lots::touch of the two halo rows (the
// pipelined fetch) and the wait for them, then the compute sweep over the
// band through
// Pointer<double> element accesses (the access check, an ALB hit after
// the first touch of a row in an interval). One op is one rank's phase.
//
// The interior starts random, not zero, so every cell changes from the
// first iteration and the traffic per iteration is the same in every
// timed round. Set-up runs a few warm-up iterations. The final grid must
// equal work::seq_sor over the same input and iteration count.
#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "common/rng.hpp"
#include "harness.hpp"
#include "workloads/reference.hpp"

namespace lotsbench {
namespace {

using lots::core::Pointer;
using lots::core::Runtime;

// n = 256: on a shared 4-vCPU host, larger grids spread far more from
// run to run (n = 1024 moved by up to 2x between runs), because four
// ranks then compete with other tenants for cache and CPU for most of
// each phase. At n = 256 a phase is mostly barrier and fetch protocol.
struct Geometry {
  size_t n = 256;
  int warmup_iters = 100;  // about 0.45 s, so start-up jitter is a small share of set-up
  int iters_per_round = 125;  // 1000 phases: 10 lie beyond a round's p99
};

Geometry geometry(const Options& opts) {
  Geometry g;
  if (opts.tiny) {
    g.n = 64;
    g.warmup_iters = 2;
    g.iters_per_round = 4;
  }
  return g;
}

/// Random interior in [0, 1), hot top edge, cool bottom edge.
std::vector<double> make_grid(size_t n, uint64_t seed) {
  lots::Rng rng(seed ^ 0x50525F534F52ull);
  std::vector<double> g(n * n);
  for (double& v : g) v = rng.unit();
  for (size_t j = 0; j < n; ++j) {
    g[j] = 1.0 + rng.unit();
    g[(n - 1) * n + j] = rng.unit() * 0.25;
  }
  return g;
}

/// One rank's share of the grid and its phase loop.
struct Band {
  size_t n, lo, hi;  ///< owned rows [lo, hi)
  int rank;
  OpSamples samples;

  /// One colour phase; returns its latency in µs. `seq` numbers the
  /// barrier cluster-wide, so the barrier spans of one barrier share a
  /// request id.
  double phase(const std::vector<Pointer<double>>& rows, int colour, uint64_t seq, bool traced) {
    const uint64_t t0 = now_ns();
    lots::barrier();
    const uint64_t t1 = now_ns();
    std::array<lots::ObjectId, 2> halo{};
    size_t nhalo = 0;
    if (lo > 0) halo[nhalo++] = rows[lo - 1].id();
    if (hi < n) halo[nhalo++] = rows[hi].id();
    lots::prefetch(std::span<const lots::ObjectId>(halo.data(), nhalo));
    // touch only sends the fetch requests; the first access waits for each
    // reply, so that wait belongs to this span rather than the compute.
    for (size_t h = 0; h < nhalo; ++h) (void)Pointer<double>(halo[h])[0];
    const uint64_t t2 = now_ns();
    for (size_t i = std::max<size_t>(lo, 1); i < std::min(hi, n - 1); ++i) {
      const Pointer<double>& up = rows[i - 1];
      const Pointer<double>& row = rows[i];
      const Pointer<double>& down = rows[i + 1];
      for (size_t j = 1 + ((i + 1 + static_cast<size_t>(colour)) & 1); j + 1 < n; j += 2) {
        row[j] = 0.25 * (up[j] + down[j] + row[j - 1] + row[j + 1]);
      }
    }
    const uint64_t t3 = now_ns();
    if (traced) {
      const uint64_t root = trace::new_id();
      const uint64_t req = seq << 8 | static_cast<uint64_t>(rank);
      trace::record("barrier.call", trace::new_id(), root, seq, t0, t1);
      trace::record("fetch.touch", trace::new_id(), root, req, t1, t2);
      trace::record("access.compute", trace::new_id(), root, req, t2, t3);
      trace::record("sor.phase", root, 0, req, t0, t3);
    }
    return static_cast<double>(t3 - t0) / 1e3;
  }
};

}  // namespace

RunData run_sor(const Options& opts) {
  const Geometry g = geometry(opts);
  const std::vector<double> grid0 = make_grid(g.n, opts.seed);
  lots::Config cfg = base_config(opts);
  cfg.dmm_bytes = 16u << 20;  // the whole grid fits: no swapping

  RunData out;
  out.nprocs = cfg.nprocs;
  Runtime rt(cfg);
  std::vector<Pointer<double>> rows;
  std::vector<std::unique_ptr<Band>> bands;
  for (int r = 0; r < cfg.nprocs; ++r) {
    const auto p = static_cast<size_t>(cfg.nprocs);
    const auto ru = static_cast<size_t>(r);
    bands.push_back(std::make_unique<Band>(Band{g.n, g.n * ru / p, g.n * (ru + 1) / p, r, {}}));
  }
  rt.run([&](int rank) {
    // Collective allocation: every rank computes the same ids.
    std::vector<Pointer<double>> mine(g.n);
    for (auto& p : mine) p.alloc(g.n);
    if (rank == 0) rows = mine;
    Band& b = *bands[static_cast<size_t>(rank)];
    for (size_t i = b.lo; i < b.hi; ++i) {
      for (size_t j = 0; j < g.n; ++j) mine[i][j] = grid0[i * g.n + j];
    }
    for (int it = 0; it < g.warmup_iters; ++it) {
      b.phase(mine, 0, 0, false);
      b.phase(mine, 1, 0, false);
    }
  });
  out.setup_s = since_start_s();
  if (opts.setup_only) return out;

  const auto nprocs = static_cast<uint64_t>(cfg.nprocs);
  Rounds rounds(cfg.nprocs, opts, rt, out, 2 * nprocs * static_cast<uint64_t>(g.iters_per_round));
  int timed_iters = 0;  // written by rank 0 only
  rt.run([&](int rank) {
    Band& b = *bands[static_cast<size_t>(rank)];
    uint64_t seq = 0;
    int iters = 0;
    while (rounds.next()) {
      const bool traced = rounds.traced();
      b.samples.start_round(traced);
      for (int it = 0; it < g.iters_per_round; ++it, ++iters) {
        b.samples.add(b.phase(rows, 0, ++seq, traced));
        b.samples.add(b.phase(rows, 1, ++seq, traced));
      }
    }
    if (rank == 0) timed_iters = iters;
  });
  out.peak_rss_mb = peak_rss_mb();

  // Check the final grid against the sequential reference.
  std::vector<double> got(g.n * g.n);
  rt.run([&](int rank) {
    lots::barrier();  // publish the last phase's writes
    if (rank == 0) {
      for (size_t i = 0; i < g.n; ++i) {
        for (size_t j = 0; j < g.n; ++j) got[i * g.n + j] = rows[i][j];
      }
    }
  });
  std::vector<double> want = grid0;
  lots::work::seq_sor(want, g.n, g.warmup_iters + timed_iters);
  const uint64_t phases = out.ops[0] + out.ops[1];
  out.attempted = phases;
  if (lots::work::max_abs_diff(got, want) > 1e-9) {
    out.fail("sor: final grid differs from seq_sor after " +
             std::to_string(g.warmup_iters + timed_iters) + " iterations");
  }

  std::vector<const OpSamples*> samples;
  for (const auto& b : bands) samples.push_back(&b->samples);
  merge_samples(out, samples);
  out.spans = trace::collect();
  return out;
}

}  // namespace lotsbench
