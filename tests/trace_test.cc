#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/system.h"
#include "src/obs/trace.h"
#include "src/workload/registrar.h"
#include "src/xpath/parser.h"

namespace xvu {
namespace obs {
namespace {

// ------------------------------------------------------------- parser
//
// Minimal JSON parser for the exact grammar ExportChromeTrace emits:
// an object {"traceEvents": [ {...}, ... ]} whose event objects hold
// string, number, and one-level-nested object ("args") values. Strict —
// any deviation fails the test via ADD_FAILURE + empty result.

struct ParsedEvent {
  std::string name;
  std::string ph;
  std::string scope;  // "s" field of instants
  uint32_t tid = 0;
  int pid = -1;
  double ts_us = -1;
  double dur_us = -1;
  bool has_dur = false;
  std::map<std::string, uint64_t> num_args;
  std::map<std::string, std::string> str_args;
};

class MiniJson {
 public:
  explicit MiniJson(const std::string& text) : s_(text) {}

  std::vector<ParsedEvent> ParseTrace() {
    std::vector<ParsedEvent> events;
    Ws();
    if (!Eat('{')) return Fail("missing {", events);
    std::string key;
    if (!String(&key) || key != "traceEvents" || (Ws(), !Eat(':'))) {
      return Fail("missing traceEvents key", events);
    }
    Ws();
    if (!Eat('[')) return Fail("missing [", events);
    Ws();
    if (!Eat(']')) {
      do {
        ParsedEvent e;
        if (!Event(&e)) return Fail("bad event object", events);
        events.push_back(std::move(e));
        Ws();
      } while (Eat(','));
      Ws();
      if (!Eat(']')) return Fail("missing ]", events);
    }
    Ws();
    if (!Eat('}')) return Fail("missing final }", events);
    Ws();
    if (at_ != s_.size()) return Fail("trailing bytes", events);
    return events;
  }

 private:
  std::vector<ParsedEvent> Fail(const char* why,
                                const std::vector<ParsedEvent>&) {
    ADD_FAILURE() << "trace JSON parse error at byte " << at_ << ": " << why;
    return {};
  }

  void Ws() {
    while (at_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[at_]))) {
      ++at_;
    }
  }

  bool Eat(char c) {
    if (at_ < s_.size() && s_[at_] == c) {
      ++at_;
      return true;
    }
    return false;
  }

  bool String(std::string* out) {
    Ws();
    if (!Eat('"')) return false;
    out->clear();
    while (at_ < s_.size() && s_[at_] != '"') {
      char c = s_[at_++];
      if (c == '\\') {
        if (at_ >= s_.size()) return false;
        char esc = s_[at_++];
        if (esc == 'u') {
          if (at_ + 4 > s_.size()) return false;
          out->push_back(static_cast<char>(
              std::stoi(s_.substr(at_, 4), nullptr, 16)));
          at_ += 4;
        } else {
          out->push_back(esc);  // \" and \\ — all the exporter emits
        }
      } else {
        out->push_back(c);
      }
    }
    return Eat('"');
  }

  bool Number(double* out) {
    Ws();
    size_t start = at_;
    while (at_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[at_])) ||
            s_[at_] == '.' || s_[at_] == '-' || s_[at_] == '+' ||
            s_[at_] == 'e' || s_[at_] == 'E')) {
      ++at_;
    }
    if (at_ == start) return false;
    *out = std::stod(s_.substr(start, at_ - start));
    return true;
  }

  bool Args(ParsedEvent* e) {
    Ws();
    if (!Eat('{')) return false;
    Ws();
    if (Eat('}')) return true;
    do {
      std::string key;
      if (!String(&key) || (Ws(), !Eat(':'))) return false;
      Ws();
      if (at_ < s_.size() && s_[at_] == '"') {
        std::string v;
        if (!String(&v)) return false;
        e->str_args[key] = v;
      } else {
        double v = 0;
        if (!Number(&v)) return false;
        e->num_args[key] = static_cast<uint64_t>(v);
      }
      Ws();
    } while (Eat(','));
    return Eat('}');
  }

  bool Event(ParsedEvent* e) {
    Ws();
    if (!Eat('{')) return false;
    do {
      std::string key;
      if (!String(&key) || (Ws(), !Eat(':'))) return false;
      Ws();
      if (key == "args") {
        if (!Args(e)) return false;
      } else if (key == "name" || key == "ph" || key == "s") {
        std::string v;
        if (!String(&v)) return false;
        if (key == "name") e->name = v;
        if (key == "ph") e->ph = v;
        if (key == "s") e->scope = v;
      } else {
        double v = 0;
        if (!Number(&v)) return false;
        if (key == "ts") e->ts_us = v;
        if (key == "dur") {
          e->dur_us = v;
          e->has_dur = true;
        }
        if (key == "tid") e->tid = static_cast<uint32_t>(v);
        if (key == "pid") e->pid = static_cast<int>(v);
      }
      Ws();
    } while (Eat(','));
    return Eat('}');
  }

  const std::string& s_;
  size_t at_ = 0;
};

std::vector<ParsedEvent> ExportAndParse() {
  const std::string json = ExportChromeTrace();
  MiniJson parser(json);
  return parser.ParseTrace();
}

/// Every test owns the global tracing switch for its duration and leaves
/// it off (the process default) afterwards.
struct ScopedTracing {
  ScopedTracing() {
    SetTracingEnabled(true);
    TraceClear();
  }
  ~ScopedTracing() { SetTracingEnabled(false); }
};

// -------------------------------------------------------------- tests

TEST(Trace, NestedSpansStayWithinParentAndSortChronologically) {
  ScopedTracing tracing;
  {
    TraceSpan outer("outer");
    outer.Arg("ops", 3);
    TraceInstant("tick");
    {
      TraceSpan inner("inner");
      // Busy-wait a hair so the spans have nonzero extent.
      const uint64_t until = TraceNowNs() + 1000;
      while (TraceNowNs() < until) {
      }
    }
  }
  std::vector<ParsedEvent> events = ExportAndParse();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us)
        << "export must be sorted by timestamp";
  }

  const ParsedEvent* outer = nullptr;
  const ParsedEvent* inner = nullptr;
  const ParsedEvent* tick = nullptr;
  for (const ParsedEvent& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "tick") tick = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(tick, nullptr);

  EXPECT_EQ(outer->ph, "X");
  EXPECT_TRUE(outer->has_dur);
  EXPECT_EQ(outer->num_args.at("ops"), 3u);
  EXPECT_EQ(tick->ph, "i");
  EXPECT_EQ(tick->scope, "t");
  EXPECT_FALSE(tick->has_dur);

  // %.3f µs keeps full ns precision, so containment holds exactly up to
  // half a rounding step.
  const double eps = 0.0005;
  EXPECT_GE(inner->ts_us + eps, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us,
            outer->ts_us + outer->dur_us + eps);
  EXPECT_GE(tick->ts_us + eps, outer->ts_us);
  EXPECT_LE(tick->ts_us, outer->ts_us + outer->dur_us + eps);
  EXPECT_GT(inner->dur_us, 0.0);
}

TEST(Trace, RingWraparoundKeepsTheLastEvents) {
  ScopedTracing tracing;
  // Capacity applies to rings created after the call, so the writer must
  // be a fresh thread.
  SetTraceRingCapacity(8);
  std::thread writer([] {
    for (uint64_t i = 0; i < 20; ++i) TraceInstant("wrap", "i", i);
  });
  writer.join();
  SetTraceRingCapacity(1u << 15);

  std::vector<ParsedEvent> wraps;
  for (const ParsedEvent& e : ExportAndParse()) {
    if (e.name == "wrap") wraps.push_back(e);
  }
  ASSERT_EQ(wraps.size(), 8u) << "ring must keep exactly its capacity";
  // Wraparound drops the oldest: the survivors are i = 12..19, in order.
  for (size_t k = 0; k < wraps.size(); ++k) {
    EXPECT_EQ(wraps[k].num_args.at("i"), 12 + k);
  }
}

TEST(Trace, JsonRoundTripsArgsAndEscapes) {
  ScopedTracing tracing;
  {
    TraceSpan span("quo\"ted\\name");
    span.Arg("count", 42);
    span.StrArg("strategy", "full\\rebuild");
  }
  TraceInstant("site", nullptr, 0, "site", "a\"b");
  std::vector<ParsedEvent> events = ExportAndParse();
  ASSERT_EQ(events.size(), 2u);

  const ParsedEvent& span = events[0].ph == "X" ? events[0] : events[1];
  const ParsedEvent& inst = events[0].ph == "i" ? events[0] : events[1];
  EXPECT_EQ(span.name, "quo\"ted\\name");
  EXPECT_EQ(span.num_args.at("count"), 42u);
  EXPECT_EQ(span.str_args.at("strategy"), "full\\rebuild");
  EXPECT_EQ(span.pid, 1);
  EXPECT_EQ(inst.name, "site");
  EXPECT_EQ(inst.str_args.at("site"), "a\"b");

  // The interning pool hands back one stable pointer per content.
  const char* p1 = TraceInterned("lane-3");
  const char* p2 = TraceInterned("lane-3");
  EXPECT_EQ(p1, p2);
  EXPECT_STRNE(p1, TraceInterned("lane-4"));
}

TEST(Trace, MultiThreadedEventsMergeSortedWithDistinctTids) {
  ScopedTracing tracing;
  constexpr int kThreads = 3;
  constexpr uint64_t kEvents = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < kEvents; ++i) TraceInstant("mt", "seq", i);
    });
  }
  for (std::thread& t : threads) t.join();

  std::map<uint32_t, std::vector<const ParsedEvent*>> by_tid;
  std::vector<ParsedEvent> events = ExportAndParse();
  double prev_ts = -1;
  for (const ParsedEvent& e : events) {
    EXPECT_GE(e.ts_us, prev_ts) << "global order must be chronological";
    prev_ts = e.ts_us;
    if (e.name == "mt") by_tid[e.tid].push_back(&e);
  }
  ASSERT_EQ(by_tid.size(), static_cast<size_t>(kThreads))
      << "each thread records under its own tid";
  for (const auto& [tid, seq] : by_tid) {
    ASSERT_EQ(seq.size(), kEvents);
    // A thread's ring preserves its program order; after the sort the
    // per-thread sequence numbers must still be monotone because each
    // thread's timestamps are.
    for (size_t i = 0; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i]->num_args.at("seq"), i) << "tid=" << tid;
    }
  }
}

TEST(Trace, DisabledTracingRecordsNothing) {
  SetTracingEnabled(false);
  TraceClear();
  {
    TraceSpan span("ghost");
    span.Arg("x", 1);
  }
  TraceInstant("ghost-instant");
  EXPECT_EQ(TraceEventCount(), 0u);
  const std::string json = ExportChromeTrace();
  MiniJson parser(json);
  EXPECT_TRUE(parser.ParseTrace().empty());
}

TEST(Trace, ClearDropsBufferedEventsButKeepsRecording) {
  ScopedTracing tracing;
  TraceInstant("before");
  ASSERT_GT(TraceEventCount(), 0u);
  TraceClear();
  EXPECT_EQ(TraceEventCount(), 0u);
  TraceInstant("after");
  std::vector<ParsedEvent> events = ExportAndParse();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "after");
}

TEST(Trace, PerOpWritesRecordPhaseSpansAtTheStatsBoundaries) {
  auto db = MakeRegistrarDatabase();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(LoadRegistrarSample(&*db).ok());
  auto atg = MakeRegistrarAtg(*db);
  ASSERT_TRUE(atg.ok());
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db));
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  auto ins_path = ParseXPath("//course[cno=\"CS650\"]/takenBy");
  auto del_path = ParseXPath(
      "//course[cno=\"CS650\"]/takenBy/student[ssn=\"S900\"]");
  ASSERT_TRUE(ins_path.ok());
  ASSERT_TRUE(del_path.ok());

  const char* kPhases[] = {"op.eval", "op.translate", "op.apply",
                           "op.maintain"};
  for (const char* op : {"op.insert", "op.delete"}) {
    ScopedTracing tracing;
    Status st = std::string(op) == "op.insert"
                    ? (*sys)->ApplyInsert(
                          "student", {Value::Str("S900"), Value::Str("Eve")},
                          *ins_path)
                    : (*sys)->ApplyDelete(*del_path);
    ASSERT_TRUE(st.ok()) << op << ": " << st.ToString();
    const UpdateStats stats = (*sys)->last_stats();
    std::vector<ParsedEvent> events = ExportAndParse();
    std::map<std::string, const ParsedEvent*> by_name;
    for (const ParsedEvent& e : events) by_name[e.name] = &e;
    ASSERT_TRUE(by_name.count(op)) << op;
    const ParsedEvent* parent = by_name[op];
    const double eps = 0.0005;
    for (const char* phase : kPhases) {
      ASSERT_TRUE(by_name.count(phase)) << op << " lacks " << phase;
      const ParsedEvent* e = by_name[phase];
      EXPECT_EQ(e->tid, parent->tid) << phase;
      EXPECT_GE(e->ts_us + eps, parent->ts_us) << phase;
      EXPECT_LE(e->ts_us + e->dur_us, parent->ts_us + parent->dur_us + eps)
          << phase;
    }
    // Same boundaries as UpdateStats (µs, to the export's ns rounding).
    const double tol = 0.002;
    EXPECT_NEAR(by_name["op.eval"]->dur_us, stats.xpath_seconds * 1e6, tol);
    EXPECT_NEAR(by_name["op.translate"]->dur_us + by_name["op.apply"]->dur_us,
                stats.translate_seconds * 1e6, tol);
    EXPECT_NEAR(by_name["op.maintain"]->dur_us, stats.maintain_seconds * 1e6,
                tol);
  }
}

}  // namespace
}  // namespace obs
}  // namespace xvu
