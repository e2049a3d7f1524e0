#include "src/obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

namespace xvu {
namespace obs {

namespace {

std::atomic<bool> g_tracing_enabled{false};
std::atomic<size_t> g_ring_capacity{1u << 15};

/// Fixed-capacity event ring for one thread. The owning thread appends
/// under the ring's own mutex — effectively uncontended (the exporter
/// takes it only while copying out), which keeps TSan happy without a
/// lock-free protocol.
struct TraceRing {
  explicit TraceRing(size_t capacity, uint32_t tid_in)
      : tid(tid_in), events(capacity) {}

  std::mutex mu;
  uint32_t tid;
  std::vector<TraceEvent> events;  // fixed size; ring indexed by next
  uint64_t next = 0;               // monotone write index
  uint64_t dropped = 0;            // overwritten by wraparound

  void Append(const TraceEvent& e) {
    std::lock_guard<std::mutex> lock(mu);
    const size_t cap = events.size();
    if (next >= cap) ++dropped;
    events[next % cap] = e;
    ++next;
  }

  /// Oldest-first copy of the surviving events.
  std::vector<TraceEvent> Drain() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<TraceEvent> out;
    const size_t cap = events.size();
    const uint64_t n = next < cap ? next : cap;
    out.reserve(n);
    for (uint64_t i = next - n; i < next; ++i) out.push_back(events[i % cap]);
    return out;
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu);
    next = 0;
    dropped = 0;
  }
};

/// Global list of every ring ever created. Rings are shared_ptr so the
/// exporter can read a ring after its thread exited; the list itself is
/// append-only under g_rings_mu (thread creation rate, not event rate).
std::mutex& RingsMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<std::shared_ptr<TraceRing>>& Rings() {
  static auto* rings = new std::vector<std::shared_ptr<TraceRing>>();
  return *rings;
}

TraceRing& ThisThreadRing() {
  thread_local std::shared_ptr<TraceRing> ring = [] {
    std::lock_guard<std::mutex> lock(RingsMu());
    auto r = std::make_shared<TraceRing>(
        g_ring_capacity.load(std::memory_order_relaxed),
        static_cast<uint32_t>(Rings().size()));
    Rings().push_back(r);
    return r;
  }();
  return *ring;
}

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

void JsonEscapeInto(std::string* out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool on) {
  g_tracing_enabled.store(on, std::memory_order_relaxed);
}

void SetTraceRingCapacity(size_t events) {
  g_ring_capacity.store(events > 0 ? events : 1, std::memory_order_relaxed);
}

uint64_t TraceNs(std::chrono::steady_clock::time_point t) {
  if (t < TraceEpoch()) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - TraceEpoch())
          .count());
}

uint64_t TraceNowNs() { return TraceNs(std::chrono::steady_clock::now()); }

const char* TraceInterned(const std::string& s) {
  static std::mutex* mu = new std::mutex();
  // deque: stable element addresses across growth. Linear scan is fine —
  // interned strings are lane labels and site names, a few dozen at most,
  // and interning happens on slow paths only.
  static auto* pool = new std::deque<std::string>();
  std::lock_guard<std::mutex> lock(*mu);
  for (const std::string& existing : *pool) {
    if (existing == s) return existing.c_str();
  }
  pool->push_back(s);
  return pool->back().c_str();
}

void TraceComplete(const char* name, uint64_t start_ns, uint64_t dur_ns,
                   const char* arg_name, uint64_t arg_value,
                   const char* sarg_name, const char* sarg_value) {
  TraceEvent e;
  e.name = name;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.phase = 'X';
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  e.sarg_name = sarg_name;
  e.sarg_value = sarg_value;
  TraceRing& ring = ThisThreadRing();
  e.tid = ring.tid;
  ring.Append(e);
}

void TraceInstant(const char* name, const char* arg_name, uint64_t arg_value,
                  const char* sarg_name, const char* sarg_value) {
  if (!TracingEnabled()) return;
  TraceEvent e;
  e.name = name;
  e.ts_ns = TraceNowNs();
  e.phase = 'i';
  e.arg_name = arg_name;
  e.arg_value = arg_value;
  e.sarg_name = sarg_name;
  e.sarg_value = sarg_value;
  TraceRing& ring = ThisThreadRing();
  e.tid = ring.tid;
  ring.Append(e);
}

void TraceClear() {
  std::lock_guard<std::mutex> lock(RingsMu());
  for (auto& ring : Rings()) ring->Clear();
}

size_t TraceEventCount() {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    std::lock_guard<std::mutex> lock(RingsMu());
    rings = Rings();
  }
  size_t total = 0;
  for (auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->next < ring->events.size()
                 ? static_cast<size_t>(ring->next)
                 : ring->events.size();
  }
  return total;
}

std::string ExportChromeTrace() {
  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    std::lock_guard<std::mutex> lock(RingsMu());
    rings = Rings();
  }
  std::vector<TraceEvent> all;
  for (auto& ring : rings) {
    std::vector<TraceEvent> drained = ring->Drain();
    all.insert(all.end(), drained.begin(), drained.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });

  std::string out = "{\"traceEvents\": [";
  char buf[128];
  for (size_t i = 0; i < all.size(); ++i) {
    const TraceEvent& e = all[i];
    if (i > 0) out += ",";
    out += "\n  {\"name\": \"";
    JsonEscapeInto(&out, e.name);
    // Chrome trace timestamps are microsecond doubles; keep ns precision
    // via the fractional part.
    std::snprintf(buf, sizeof(buf),
                  "\", \"ph\": \"%c\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f",
                  e.phase, e.tid, static_cast<double>(e.ts_ns) / 1e3);
    out += buf;
    if (e.phase == 'X') {
      std::snprintf(buf, sizeof(buf), ", \"dur\": %.3f",
                    static_cast<double>(e.dur_ns) / 1e3);
      out += buf;
    } else if (e.phase == 'i') {
      out += ", \"s\": \"t\"";  // instant scoped to its thread
    }
    if (e.arg_name != nullptr || e.sarg_name != nullptr) {
      out += ", \"args\": {";
      bool first = true;
      if (e.arg_name != nullptr) {
        out += "\"";
        JsonEscapeInto(&out, e.arg_name);
        std::snprintf(buf, sizeof(buf), "\": %llu",
                      static_cast<unsigned long long>(e.arg_value));
        out += buf;
        first = false;
      }
      if (e.sarg_name != nullptr) {
        if (!first) out += ", ";
        out += "\"";
        JsonEscapeInto(&out, e.sarg_name);
        out += "\": \"";
        JsonEscapeInto(&out, e.sarg_value != nullptr ? e.sarg_value : "");
        out += "\"";
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace obs
}  // namespace xvu
