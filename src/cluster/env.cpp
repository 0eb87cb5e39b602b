#include "cluster/env.hpp"

#include <cstdlib>

#include "common/error.hpp"

namespace lots::cluster {
namespace {

double env_prob(const char* name) {
  const char* s = std::getenv(name);
  if (!s || !*s) return 0.0;
  const double v = std::strtod(s, nullptr);
  if (v < 0.0 || v > 0.9) {
    throw UsageError(std::string(name) + " must be a probability in [0, 0.9]");
  }
  return v;
}

// Strict integer parse: a typo like LOTS_PREFETCH=four must fail
// loudly, not silently run the baseline configuration.
long env_int(const char* name, const char* s, long lo, long hi) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < lo || v > hi) {
    throw UsageError(std::string(name) + " must be an integer in [" + std::to_string(lo) +
                     "," + std::to_string(hi) + "]");
  }
  return v;
}

// "a" or "a,b": parses one value into `a`, and — only when a comma is
// present — a second into `b` (otherwise `b` keeps its caller-supplied
// default). Used by the chaos knobs' victim/barrier pairs.
void env_int_pair(const char* name, const char* s, long lo, long hi, long& a, long& b) {
  const std::string whole(s);
  const size_t comma = whole.find(',');
  if (comma == std::string::npos) {
    a = env_int(name, s, lo, hi);
    return;
  }
  const std::string first = whole.substr(0, comma);
  const std::string second = whole.substr(comma + 1);
  a = env_int(name, first.c_str(), lo, hi);
  b = env_int(name, second.c_str(), lo, hi);
}

}  // namespace

long env_int_or(const char* name, long dflt, long lo, long hi) {
  const char* s = std::getenv(name);
  if (!s || !*s) return dflt;
  return env_int(name, s, lo, hi);
}

double env_double_or(const char* name, double dflt, double lo, double hi) {
  const char* s = std::getenv(name);
  if (!s || !*s) return dflt;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || v < lo || v > hi) {
    throw UsageError(std::string(name) + " must be a number in [" + std::to_string(lo) + "," +
                     std::to_string(hi) + "]");
  }
  return v;
}

bool under_launcher() { return std::getenv(kEnvCoordPort) != nullptr; }

bool configure_threads_from_env(Config& cfg) {
  const char* s = std::getenv(kEnvThreads);
  if (!s || !*s) return false;
  const long v = std::strtol(s, nullptr, 10);
  if (v < 1 || v > 256) {
    throw UsageError(std::string(kEnvThreads) + " must be in [1,256]");
  }
  cfg.threads_per_node = static_cast<int>(v);
  return true;
}

bool configure_fetch_from_env(Config& cfg) {
  bool any = false;
  if (const char* s = std::getenv(kEnvFetchWindow); s && *s) {
    cfg.fetch_window = static_cast<size_t>(env_int(kEnvFetchWindow, s, 1, 256));
    any = true;
  }
  if (const char* s = std::getenv(kEnvPrefetch); s && *s) {
    cfg.prefetch_degree = static_cast<size_t>(env_int(kEnvPrefetch, s, 0, 64));
    any = true;
  }
  if (const char* s = std::getenv(kEnvBarrierReval); s && *s) {
    cfg.barrier_revalidate = std::string(s) != "0";
    any = true;
  }
  return any;
}

bool configure_fastpath_from_env(Config& cfg) {
  bool any = false;
  if (const char* s = std::getenv(kEnvAlb); s && *s) {
    cfg.alb = std::string(s) != "0";
    any = true;
  }
  if (const char* s = std::getenv(kEnvAlbSize); s && *s) {
    cfg.alb_size = static_cast<size_t>(env_int(kEnvAlbSize, s, 2, 1 << 20));
    any = true;
  }
  return any;
}

bool configure_migrate_from_env(Config& cfg) {
  bool any = false;
  if (const char* s = std::getenv(kEnvMigrate); s && *s) {
    cfg.lock_migration = std::string(s) != "0";
    any = true;
  }
  if (const char* s = std::getenv(kEnvMigrateK); s && *s) {
    cfg.migrate_streak = static_cast<uint32_t>(env_int(kEnvMigrateK, s, 1, 1024));
    any = true;
  }
  return any;
}

bool configure_robustness_from_env(Config& cfg) {
  bool any = false;
  if (const char* s = std::getenv(kEnvReplicate); s && *s) {
    cfg.replication = static_cast<int>(env_int(kEnvReplicate, s, 0, 256));
    any = true;
  }
  if (const char* s = std::getenv(kEnvNetRetrans); s && *s) {
    cfg.cluster.udp_max_retrans = static_cast<size_t>(env_int(kEnvNetRetrans, s, 0, 1 << 20));
    any = true;
  }
  if (const char* s = std::getenv(kEnvKillRank); s && *s) {
    long a = -1;
    long b = -1;
    env_int_pair(kEnvKillRank, s, -1, 255, a, b);
    cfg.chaos_kill_rank = static_cast<int>(a);
    cfg.chaos_kill_rank2 = static_cast<int>(b);
    any = true;
  }
  if (const char* s = std::getenv(kEnvKillAfter); s && *s) {
    long a = 0;
    long b = -1;
    env_int_pair(kEnvKillAfter, s, 0, 1 << 30, a, b);
    cfg.chaos_kill_after_barrier = static_cast<uint32_t>(a);
    cfg.chaos_kill_after_barrier2 = static_cast<uint32_t>(b < 0 ? a : b);
    any = true;
  }
  if (const char* s = std::getenv(kEnvKillMid); s && *s) {
    cfg.chaos_kill_mid_barrier = std::string(s) != "0";
    any = true;
  }
  if (const char* s = std::getenv(kEnvKillInRecovery); s && *s) {
    cfg.chaos_kill_in_recovery = static_cast<int>(env_int(kEnvKillInRecovery, s, -1, 255));
    any = true;
  }
  if (const char* s = std::getenv(kEnvKillAfterRecovery); s && *s) {
    cfg.chaos_kill_after_recovery =
        static_cast<int>(env_int(kEnvKillAfterRecovery, s, -1, 255));
    any = true;
  }
  return any;
}

bool configure_from_env(Config& cfg) {
  configure_threads_from_env(cfg);   // fabric-independent hybrid knob
  configure_fetch_from_env(cfg);     // fabric-independent fetch-engine knobs
  configure_fastpath_from_env(cfg);  // fabric-independent fast-path knobs
  configure_migrate_from_env(cfg);   // fabric-independent migration knobs
  configure_robustness_from_env(cfg);  // fabric-independent fault-tolerance knobs
  const char* port_s = std::getenv(kEnvCoordPort);
  if (!port_s) return false;
  const char* nprocs_s = std::getenv(kEnvNprocs);
  if (!nprocs_s) throw UsageError("LOTS_COORD_PORT is set but LOTS_NPROCS is not");

  cfg.nprocs = static_cast<int>(std::strtol(nprocs_s, nullptr, 10));
  cfg.cluster.fabric = FabricKind::kUdp;
  cfg.cluster.coord_port = static_cast<uint16_t>(std::strtoul(port_s, nullptr, 10));
  cfg.cluster.drop_prob = env_prob(kEnvDrop);
  cfg.cluster.reorder_prob = env_prob(kEnvReorder);
  cfg.cluster.dup_prob = env_prob(kEnvDup);
  if (const char* seed_s = std::getenv(kEnvFaultSeed)) {
    cfg.cluster.fault_seed = std::strtoull(seed_s, nullptr, 10);
  }
  if (const char* s = std::getenv(kEnvNetStripes); s && *s) {
    cfg.cluster.net_stripes = static_cast<size_t>(env_int(kEnvNetStripes, s, 0, 64));
  }
  return true;
}

}  // namespace lots::cluster
