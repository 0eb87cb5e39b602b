// Shared pieces of the LOTS benchmark: options, counter snapshots,
// lock-step timed rounds, and what a workload hands back to main().
#pragma once

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "trace.hpp"

namespace lotsbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test geometry: a much smaller instance of the same workload.
  bool tiny = false;
  /// > 0: exactly this many timed rounds (repeatable counts); 0: rounds
  /// until `seconds` have passed.
  int rounds = 0;
  /// Holds the disk stores and the trace file; must exist.
  std::string work_dir;
  /// Stop after set-up: the process only measures setup_s.
  bool setup_only = false;
};

/// The NodeStats counters the benchmark reads, summed over all ranks.
enum Counter : size_t {
  kMsgs,
  kBytes,
  kLockAcquires,
  kDiffPayloadBytes,
  kDiffBytesSaved,
  kInvalidations,
  kObjectFetches,
  kFetchStallUs,
  kBarriers,  ///< counted once per rank per barrier
  kAccessChecks,
  kAlbHits,
  kEvictions,
  kSwapIns,
  kSwapOuts,
  kSwapBytesIn,
  kSwapBytesOut,
  kCounterCount
};

struct Counters {
  std::array<uint64_t, kCounterCount> v{};

  static Counters read(lots::core::Runtime& rt) {
    static constexpr std::atomic<uint64_t> lots::NodeStats::*kFields[kCounterCount] = {
        &lots::NodeStats::msgs_sent,          &lots::NodeStats::bytes_sent,
        &lots::NodeStats::lock_acquires,      &lots::NodeStats::diff_payload_bytes,
        &lots::NodeStats::diff_bytes_saved,   &lots::NodeStats::invalidations,
        &lots::NodeStats::object_fetches,     &lots::NodeStats::fetch_stall_us,
        &lots::NodeStats::barriers,           &lots::NodeStats::access_checks,
        &lots::NodeStats::alb_hits,           &lots::NodeStats::evictions,
        &lots::NodeStats::swap_ins,           &lots::NodeStats::swap_outs,
        &lots::NodeStats::swap_bytes_in,      &lots::NodeStats::swap_bytes_out,
    };
    lots::NodeStats agg;
    rt.aggregate_stats(agg);
    Counters c;
    for (size_t i = 0; i < kCounterCount; ++i) c.v[i] = (agg.*kFields[i]).load();
    return c;
  }
  uint64_t operator[](Counter k) const { return v[k]; }
  Counters& add_delta(const Counters& after, const Counters& before) {
    for (size_t i = 0; i < kCounterCount; ++i) v[i] += after.v[i] - before.v[i];
    return *this;
  }
};

/// What a workload run hands back. Rounds alternate untraced/traced in a
/// traced run; in an untraced run every round is untraced.
struct RunData {
  bool correct = true;
  std::string failure;  ///< first failed check, for the log
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double setup_s = 0;  ///< process start to the start of the timed phase
  /// Per round: work done / wall time, split by whether it was traced.
  std::vector<double> round_ops_per_s[2];
  /// Exact per-op latencies (µs) of every op of each round, split the
  /// same way.
  std::vector<std::vector<double>> round_op_us[2];
  uint64_t ops[2] = {0, 0};
  Counters counters[2];  ///< deltas over the timed rounds
  std::vector<trace::Span> spans;
  int nprocs = 4;
  double peak_rss_mb = 0;  ///< sampled when the timed rounds end

  void fail(const std::string& what) {
    ++failed;
    if (correct) failure = what;
    correct = false;
  }
};

/// One party's op latencies, one vector per timed round.
struct OpSamples {
  std::vector<std::vector<double>> rounds[2];
  std::vector<double>* cur = nullptr;

  void start_round(bool traced) { cur = &rounds[traced ? 1 : 0].emplace_back(); }
  void add(double us) { cur->push_back(us); }
};

/// Pools the parties' samples round by round into `out`. Every party
/// took part in every round.
inline void merge_samples(RunData& out, const std::vector<const OpSamples*>& parties) {
  for (int side = 0; side < 2; ++side) {
    out.round_op_us[side].assign(parties.front()->rounds[side].size(), {});
    for (const OpSamples* p : parties) {
      for (size_t r = 0; r < p->rounds[side].size(); ++r) {
        auto& dst = out.round_op_us[side][r];
        dst.insert(dst.end(), p->rounds[side][r].begin(), p->rounds[side][r].end());
      }
    }
  }
}

/// Lock-step timed rounds. Every party calls next() at each round
/// boundary; the last to arrive closes the round (its wall time and its
/// counter deltas) and decides whether another fixed-work round runs.
/// The boundary is an in-process rendezvous, not a DSM barrier, so it
/// adds no protocol traffic.
class Rounds {
 public:
  Rounds(int parties, const Options& opts, lots::core::Runtime& rt, RunData& out,
         uint64_t ops_per_round)
      : opts_(opts),
        rt_(rt),
        out_(out),
        ops_per_round_(ops_per_round),
        barrier_(parties, Boundary{this}) {}
  Rounds(const Rounds&) = delete;
  Rounds& operator=(const Rounds&) = delete;

  /// Blocks until every party is at the boundary. False: the run is over.
  bool next() {
    barrier_.arrive_and_wait();
    return go_.load(std::memory_order_relaxed);
  }
  /// Whether the current round records spans (stable within a round).
  [[nodiscard]] bool traced() const { return traced_.load(std::memory_order_relaxed); }

 private:
  struct Boundary {
    Rounds* self;
    void operator()() noexcept { self->close_and_open(); }
  };

  void close_and_open() noexcept {
    const uint64_t t = now_ns();
    const int side = traced() ? 1 : 0;
    if (round_ >= 0) {
      const double secs = static_cast<double>(t - round_start_) / 1e9;
      out_.round_ops_per_s[side].push_back(static_cast<double>(ops_per_round_) / secs);
      out_.ops[side] += ops_per_round_;
      out_.counters[side].add_delta(Counters::read(rt_), snap_);
    } else {
      run_start_ = t;
    }
    ++round_;
    constexpr int kMinRounds = 2;  // a traced run needs one round of each kind
    const bool go = opts_.rounds > 0
                        ? round_ < opts_.rounds
                        : (round_ < kMinRounds ||
                           static_cast<double>(t - run_start_) / 1e9 < opts_.seconds);
    const bool traced = go && opts_.trace && round_ % 2 == 1;
    traced_.store(traced, std::memory_order_relaxed);
    trace::set_enabled(traced);
    go_.store(go, std::memory_order_relaxed);
    if (go) {
      snap_ = Counters::read(rt_);
      round_start_ = now_ns();
    }
  }

  const Options& opts_;
  lots::core::Runtime& rt_;
  RunData& out_;
  uint64_t ops_per_round_;
  int round_ = -1;
  uint64_t run_start_ = 0;
  uint64_t round_start_ = 0;
  Counters snap_;
  std::atomic<bool> go_{false};
  std::atomic<bool> traced_{false};
  std::barrier<Boundary> barrier_;
};

/// A Config for 4 in-proc ranks with one app thread each, whose disk
/// stores live under the benchmark's work directory.
inline lots::Config base_config(const Options& opts) {
  lots::Config cfg;
  cfg.nprocs = 4;
  cfg.threads_per_node = 1;
  cfg.disk_dir = opts.work_dir + "/disk";
  return cfg;
}

/// The process's peak resident set so far.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Seconds since the process started (taken during static
/// initialisation, before main()).
double since_start_s();

RunData run_kv(const Options& opts, bool zipf);
RunData run_sor(const Options& opts);
RunData run_ooc(const Options& opts);

}  // namespace lotsbench
