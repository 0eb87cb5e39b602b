#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace lotsbench::trace {
namespace {

std::atomic<bool> g_enabled{false};

struct Buffer {
  uint64_t tag = 0;  ///< high bits of every id this thread allocates
  uint64_t seq = 0;
  std::vector<Span> spans;
};

// Buffers outlive their threads: the registry owns them and collect()
// reads them after the recording threads have been joined.
std::mutex g_registry_mu;
std::vector<std::unique_ptr<Buffer>> g_registry;

Buffer& local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<Buffer>();
    owned->spans.reserve(1 << 14);
    std::lock_guard lk(g_registry_mu);
    owned->tag = static_cast<uint64_t>(g_registry.size()) + 1;
    buf = owned.get();
    g_registry.push_back(std::move(owned));
  }
  return *buf;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

uint64_t new_id() {
  Buffer& b = local();
  return b.tag << 40 | ++b.seq;
}

void record(const char* name, uint64_t id, uint64_t parent, uint64_t req, uint64_t start_ns,
            uint64_t end_ns) {
  local().spans.push_back(Span{name, id, parent, req, start_ns, end_ns});
}

std::vector<Span> collect() {
  std::lock_guard lk(g_registry_mu);
  std::vector<Span> all;
  for (const auto& b : g_registry) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

std::vector<uint64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::unordered_map<size_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_ns();
  for (auto& [p, kids] : children) {
    const Span& ps = spans[p];
    std::sort(kids.begin(), kids.end(),
              [&](size_t a, size_t b) { return spans[a].start_ns < spans[b].start_ns; });
    // Union of the children's intervals, clipped to the parent's.
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const size_t k : kids) {
      const uint64_t lo = std::max(spans[k].start_ns, ps.start_ns);
      const uint64_t hi = std::min(spans[k].end_ns, ps.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[p] = ps.dur_ns() - std::min(covered, ps.dur_ns());
  }
  return self;
}

std::vector<double> durations_us(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.dur_ns()) / 1e3);
  }
  return out;
}

bool write_tsv(const std::string& path, const std::vector<Span>& spans,
               const std::vector<uint64_t>& self) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\n",
                 s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns, self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace lotsbench::trace
