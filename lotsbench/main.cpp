// The LOTS benchmark binary: runs one workload in this process and prints
// its metrics as one JSON object on the last line of standard output.
//
//   lotsbench --workload kv_uniform|kv_zipf|sor|ooc_sweep --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--tiny] [--rounds R]
//             [--setup-only]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and prints the per-layer metrics derived from the
// spans and the counter deltas, and writes the spans to DIR.
// --setup-only stops after set-up and prints setup_s alone. lotsbench/
// README.md lists every metric.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "harness.hpp"

namespace lotsbench {
namespace {

const uint64_t g_main_start_ns = now_ns();

/// Percentile q in [0, 100] of the full sample set, interpolating
/// linearly between the two closest ranks. 0 for an empty set.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Each round's q-th latency percentile.
std::vector<double> round_percentiles(const std::vector<std::vector<double>>& rounds, double q) {
  std::vector<double> per_round;
  for (const auto& r : rounds) per_round.push_back(percentile(r, q));
  return per_round;
}

/// Median over rounds of each round's q-th latency percentile, so a burst
/// of interference from outside the process moves one round, not the run.
double round_percentile(const std::vector<std::vector<double>>& rounds, double q) {
  return median(round_percentiles(rounds, q));
}

/// Where over a run's rounds the end-to-end timings are read: the lower
/// quartile of the rounds' latencies and the upper quartile of their
/// rates, the quiet end. Other tenants of the host only add time, in
/// stretches that can cover most of a run, so the quiet rounds are the
/// ones that measure the program (the reasoning behind best-of-N timing).
/// A change that slows every round still moves them.
constexpr double kQuietPct = 25;

double quiet_latency(const std::vector<std::vector<double>>& rounds, double q) {
  return percentile(round_percentiles(rounds, q), kQuietPct);
}

double quiet_rate(const std::vector<double>& rates) { return percentile(rates, 100 - kQuietPct); }

size_t sample_count(const std::vector<std::vector<double>>& rounds) {
  size_t n = 0;
  for (const auto& r : rounds) n += r.size();
  return n;
}

std::string num(double x) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::vector<double> durations_prefix(const std::vector<trace::Span>& spans, const char* prefix) {
  std::vector<double> out;
  const size_t n = std::strlen(prefix);
  for (const trace::Span& s : spans) {
    if (std::strncmp(s.name, prefix, n) == 0) out.push_back(static_cast<double>(s.dur_ns()) / 1e3);
  }
  return out;
}

std::vector<Metric> end_to_end(const RunData& d) {
  return {
      {"setup_s", d.setup_s, "s"},
      {"ops_per_s", quiet_rate(d.round_ops_per_s[0]), "1/s"},
      {"op_p50_us", quiet_latency(d.round_op_us[0], 50), "us"},
      {"peak_rss_mb", d.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const RunData& d, const std::vector<uint64_t>& self) {
  const auto& sp = d.spans;
  Counters all;
  all.add_delta(d.counters[0], Counters{}).add_delta(d.counters[1], Counters{});
  const Counters& traced = d.counters[1];
  const double ops = static_cast<double>(d.ops[0] + d.ops[1]);
  const double barriers = static_cast<double>(all[kBarriers]) / d.nprocs;
  const double iters = barriers / 2;  // sor: two barriers per iteration
  auto per_op = [&](Counter c) { return ratio(static_cast<double>(all[c]), ops); };
  auto per_barrier = [&](Counter c) { return ratio(static_cast<double>(all[c]), barriers); };
  auto p = [&](const char* name, double q) { return percentile(trace::durations_us(sp, name), q); };

  // Barrier protocol time and skew: group each barrier's per-rank spans.
  std::unordered_map<uint64_t, std::vector<const trace::Span*>> by_barrier;
  for (const trace::Span& s : sp) {
    if (std::strcmp(s.name, "barrier.call") == 0) by_barrier[s.req].push_back(&s);
  }
  std::vector<double> protocol, skew;
  for (const auto& [seq, calls] : by_barrier) {
    if (calls.size() != static_cast<size_t>(d.nprocs)) continue;
    const auto last = std::max_element(calls.begin(), calls.end(), [](auto* a, auto* b) {
      return a->start_ns < b->start_ns;
    });
    const auto first = std::min_element(calls.begin(), calls.end(), [](auto* a, auto* b) {
      return a->start_ns < b->start_ns;
    });
    protocol.push_back(static_cast<double>((*last)->dur_ns()) / 1e3);
    skew.push_back(static_cast<double>((*last)->start_ns - (*first)->start_ns) / 1e3);
  }

  double scan_ns = 0;
  for (const char* name : {"access.compute", "access.row_scan"}) {
    for (const double us : trace::durations_us(sp, name)) scan_ns += us * 1e3;
  }
  std::vector<double> unexplained;
  for (size_t i = 0; i < sp.size(); ++i) {
    if (sp[i].parent == 0) unexplained.push_back(static_cast<double>(self[i]) / 1e3);
  }
  const double traced_p50 = round_percentile(d.round_op_us[1], 50);
  const double untraced_p50 = round_percentile(d.round_op_us[0], 50);
  const double traced_rate = median(d.round_ops_per_s[1]);
  const double untraced_rate = median(d.round_ops_per_s[0]);

  return {
      // The op tail of the untraced rounds. Not an end-to-end metric: on a
      // shared host it follows other tenants by up to 9x (lotsbench/README.md).
      {"op_p99_us", round_percentile(d.round_op_us[0], 99), "us"},
      {"service.verb_us.p50", percentile(durations_prefix(sp, "service."), 50), "us"},
      {"service.verb_us.p99", percentile(durations_prefix(sp, "service."), 99), "us"},
      {"service.get_us.p50", p("service.get", 50), "us"},
      {"service.put_us.p50", p("service.put", 50), "us"},
      {"service.scan_us.p50", p("service.scan", 50), "us"},
      {"workqueue.wait_us.p50", p("workqueue.wait", 50), "us"},
      {"workqueue.reply_us.p50", p("workqueue.reply", 50), "us"},
      {"locks.acquires_per_op", per_op(kLockAcquires), "count/op"},
      {"net.msgs_per_op", per_op(kMsgs), "count/op"},
      {"net.bytes_per_op", per_op(kBytes), "B/op"},
      {"coherence.diff_payload_bytes_per_op", per_op(kDiffPayloadBytes), "B/op"},
      {"coherence.diff_bytes_saved_per_op", per_op(kDiffBytesSaved), "B/op"},
      {"coherence.invalidations_per_op", per_op(kInvalidations), "count/op"},
      {"coherence.diff_payload_bytes_per_barrier", per_barrier(kDiffPayloadBytes), "B"},
      {"barrier.call_us.p50", p("barrier.call", 50), "us"},
      {"barrier.call_us.p99", p("barrier.call", 99), "us"},
      {"barrier.protocol_us.p50", median(protocol), "us"},
      {"barrier.skew_us.p50", median(skew), "us"},
      {"barrier.msgs_per_barrier", per_barrier(kMsgs), "count"},
      {"barrier.bytes_per_barrier", per_barrier(kBytes), "B"},
      {"fetch.touch_us.p50", p("fetch.touch", 50), "us"},
      {"fetch.object_fetches_per_iter", ratio(static_cast<double>(all[kObjectFetches]), iters), "count"},
      {"fetch.stall_us_per_iter", ratio(static_cast<double>(all[kFetchStallUs]), iters), "us"},
      {"access.compute_us.p50", p("access.compute", 50), "us"},
      {"access.ns_per_check", ratio(scan_ns, static_cast<double>(traced[kAccessChecks])), "ns"},
      {"access.alb_hit_ratio",
       ratio(static_cast<double>(all[kAlbHits]), static_cast<double>(all[kAccessChecks])), "ratio"},
      {"access.row_scan_us.p50", p("access.row_scan", 50), "us"},
      {"mem.fault_us.p50", p("mem.fault", 50), "us"},
      {"mem.fault_us.p99", p("mem.fault", 99), "us"},
      {"mem.evictions_per_op", per_op(kEvictions), "count/op"},
      {"storage.swap_ins_per_op", per_op(kSwapIns), "count/op"},
      {"storage.swap_in_bytes_per_op", per_op(kSwapBytesIn), "B/op"},
      {"storage.swap_out_bytes_per_op", per_op(kSwapBytesOut), "B/op"},
      {"trace.op_p50_us", traced_p50, "us"},
      {"trace.untraced_op_p50_us", untraced_p50, "us"},
      {"trace.overhead_p50_pct", 100.0 * ratio(traced_p50 - untraced_p50, untraced_p50), "%"},
      {"trace.overhead_ops_per_s_pct", 100.0 * ratio(untraced_rate - traced_rate, untraced_rate),
       "%"},
      {"trace.unexplained_us.p50", median(unexplained), "us"},
  };
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    if (i) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "lotsbench: %s\nusage: lotsbench --workload kv_uniform|kv_zipf|sor|ooc_sweep "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--tiny] [--rounds R] "
               "[--setup-only]\n",
               why);
  return 2;
}

}  // namespace

double since_start_s() { return static_cast<double>(now_ns() - g_main_start_ns) / 1e9; }

}  // namespace lotsbench

int main(int argc, char** argv) {
  using namespace lotsbench;
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (a == "--tiny") {
        opts.tiny = true;
      } else if (a == "--setup-only") {
        opts.setup_only = true;
      } else if (!has_value) {
        return usage(("missing value for " + a).c_str());
      } else if (a == "--workload") {
        opts.workload = argv[++i];
      } else if (a == "--seed") {
        opts.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds") {
        opts.seconds = std::stod(argv[++i]);
      } else if (a == "--trace") {
        opts.trace = std::stoi(argv[++i]) != 0;
      } else if (a == "--rounds") {
        opts.rounds = std::stoi(argv[++i]);
      } else if (a == "--work-dir") {
        opts.work_dir = argv[++i];
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (opts.work_dir.empty()) return usage("--work-dir is required");

  RunData d;
  if (opts.workload == "kv_uniform") {
    d = run_kv(opts, false);
  } else if (opts.workload == "kv_zipf") {
    d = run_kv(opts, true);
  } else if (opts.workload == "sor") {
    d = run_sor(opts);
  } else if (opts.workload == "ooc_sweep") {
    d = run_ooc(opts);
  } else {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }

  if (opts.setup_only) {
    if (!d.correct) std::fprintf(stderr, "lotsbench: CHECK FAILED: %s\n", d.failure.c_str());
    std::printf("{\"correct\": %s, \"setup_s\": %s}\n", d.correct ? "true" : "false",
                num(d.setup_s).c_str());
    std::fflush(stdout);
    return d.correct ? 0 : 1;
  }

  const std::vector<uint64_t> self = trace::self_times(d.spans);
  std::string trace_file;
  if (opts.trace) {
    trace_file = opts.work_dir + "/trace-" + opts.workload + ".tsv";
    if (!trace::write_tsv(trace_file, d.spans, self)) d.fail("cannot write " + trace_file);
  }

  // Context for the reader of the log: host fingerprint, sample counts,
  // every set-up time. The last line alone is the result.
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (const double x : v) out += (out.empty() ? "" : ", ") + num(x);
    return "[" + out + "]";
  };
  std::printf(
      "{\"info\": {\"workload\": %s, \"seed\": %llu, \"cpu\": %s, \"nproc\": %u, \"compiler\": %s, "
      "\"build_type\": %s, \"samples\": [%zu, %zu], \"setup_s\": %s, \"round_ops_per_s\": [%s, %s], "
      "\"round_p50_us\": %s, \"round_p99_us\": %s, \"trace_file\": %s, \"failure\": %s}}\n",
      quoted(opts.workload).c_str(), static_cast<unsigned long long>(opts.seed),
      quoted(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      quoted(__VERSION__).c_str(), quoted(LOTSBENCH_BUILD_TYPE).c_str(),
      sample_count(d.round_op_us[0]), sample_count(d.round_op_us[1]), num(d.setup_s).c_str(),
      list(d.round_ops_per_s[0]).c_str(), list(d.round_ops_per_s[1]).c_str(),
      list(round_percentiles(d.round_op_us[0], 50)).c_str(),
      list(round_percentiles(d.round_op_us[0], 99)).c_str(), quoted(trace_file).c_str(),
      quoted(d.failure).c_str());
  if (!d.correct) std::fprintf(stderr, "lotsbench: CHECK FAILED: %s\n", d.failure.c_str());

  const std::vector<Metric> ms = opts.trace ? per_layer(d, self) : end_to_end(d);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              d.correct ? "true" : "false", static_cast<unsigned long long>(d.attempted),
              static_cast<unsigned long long>(d.failed), metrics_json(ms).c_str());
  std::fflush(stdout);
  return d.correct ? 0 : 1;
}
