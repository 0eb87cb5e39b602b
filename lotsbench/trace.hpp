// Span recorder for the traced benchmark run.
//
// Each thread appends {name, id, parent, request, start, end} records to
// its own in-memory buffer; nothing is written until the run ends. A
// span's id is allocated when it starts so that children recorded
// before it ends (possibly on another thread, as with a work item run
// by an app thread on behalf of a client) can name it as their parent.
// Recording is switched on only for traced rounds, so untraced rounds of
// the same process pay one relaxed load per span site.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lotsbench {

/// Monotonic nanoseconds (steady_clock).
inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

namespace trace {

struct Span {
  const char* name = "";  ///< static string: the layer boundary crossed
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span
  uint64_t req = 0;     ///< request id shared by the spans of one op
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  [[nodiscard]] uint64_t dur_ns() const { return end_ns - start_ns; }
};

/// Switched at round boundaries, while no span is open.
void set_enabled(bool on);
bool enabled();

/// A fresh span id, unique across threads and never 0.
uint64_t new_id();
/// Appends a finished span to the calling thread's buffer.
void record(const char* name, uint64_t id, uint64_t parent, uint64_t req, uint64_t start_ns,
            uint64_t end_ns);

/// Every span recorded so far, from all threads. Call once the threads
/// that record have stopped.
std::vector<Span> collect();

/// Self time of each span (aligned with `spans`): its duration minus the
/// part of its interval that its children cover.
std::vector<uint64_t> self_times(const std::vector<Span>& spans);

/// Durations in microseconds of the spans called `name`.
std::vector<double> durations_us(const std::vector<Span>& spans, const std::string& name);

/// Writes the spans as tab-separated text with a header line:
/// id, parent, req, name, start_ns, end_ns, self_ns. Returns false when
/// the file cannot be written.
bool write_tsv(const std::string& path, const std::vector<Span>& spans,
               const std::vector<uint64_t>& self);

}  // namespace trace
}  // namespace lotsbench
