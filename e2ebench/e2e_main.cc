// xvu end-to-end benchmark: one named workload over the synthetic C/F/H/CU
// view of Section 5, built from --seed, driven only through the public
// UpdateSystem API, with every output checked against the benchmark's own
// computation (e2ebench/oracle.h).
//
//   xvu_e2e --workload perop_20k|batch_20k|readers_5k --seed N
//           --seconds S --trace 0|1 --out DIR [--workers N]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1 (tracing on; the Chrome trace is written to DIR). Progress
// and failures go to stderr. See e2ebench/README.md.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "e2ebench/oracle.h"
#include "e2ebench/stream.h"
#include "src/core/system.h"
#include "src/obs/obs.h"
#include "src/workload/synthetic.h"
#include "src/xpath/parser.h"

namespace xvubench {
namespace {

using Clock = std::chrono::steady_clock;
using xvu::Status;
using xvu::UpdateStats;
using xvu::UpdateSystem;

/// Set-up is timed from here: static initialisation runs at process start.
const Clock::time_point kProcessStart = Clock::now();

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

uint64_t CounterValue(const char* name) {
  return xvu::obs::MetricsRegistry::Instance().GetCounter(name)->Value();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
  /// Worker lanes in place of the workload's own count; 0 keeps it. Not
  /// tracked: it exists to compare batch_20k's lanes against a serial run.
  size_t workers = 0;
};

struct WorkloadSpec {
  const char* name;
  size_t num_c;
  size_t workers;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"perop_20k", 20000, 1},
    {"batch_20k", 20000, 4},
    {"readers_5k", 5000, 1},
};

using Step = std::vector<std::pair<OpKind, PathClass>>;

/// One per-op round: eleven statements in three steps, a read burst after
/// each step. Every class makes a leaf insert, a buddy insert and a
/// delete; W1 adds a second leaf insert and a second delete, which puts
/// the median and the 90th percentile of write latency inside a cluster
/// of like statements rather than on the edge between two.
const std::vector<Step> kPerOpRound = {
    {{OpKind::kLeafInsert, PathClass::kW1},
     {OpKind::kBuddyInsert, PathClass::kW2},
     {OpKind::kLeafDelete, PathClass::kW3},
     {OpKind::kLeafDelete, PathClass::kW1}},
    {{OpKind::kLeafInsert, PathClass::kW2},
     {OpKind::kBuddyInsert, PathClass::kW3},
     {OpKind::kLeafInsert, PathClass::kW1},
     {OpKind::kLeafDelete, PathClass::kW2}},
    {{OpKind::kLeafInsert, PathClass::kW3},
     {OpKind::kBuddyInsert, PathClass::kW1},
     {OpKind::kLeafDelete, PathClass::kW1}},
};
constexpr size_t kPerOpMinRounds = 12;    // 132 writes
constexpr size_t kPerOpBurst = 34;        // 1224 reads in 12 rounds
constexpr size_t kBatchesPerRound = 5;
constexpr size_t kBatchMinRounds = 20;    // 100 batches
constexpr size_t kBatchBurst = 50;        // 1000 reads in 20 rounds
constexpr double kWriterRate = 8;         // readers_5k writes per second
constexpr size_t kReadersMinRounds = 10;  // 110 writes
constexpr size_t kReaderThreads = 2;
constexpr size_t kSampleEvery = 1024;     // readers_5k replayed read sample
constexpr size_t kMaxSamplesPerReader = 100;
constexpr size_t kFingerprintSamples20k = 2;

/// What one read returned, kept for the single-threaded replay.
struct ReadSample {
  uint64_t epoch = 0;
  size_t path = 0;
  Answer answer;
};

/// A uniform sample of at most 2^17 values (every value below that), so a
/// closed-loop reader's memory stays flat however many reads it makes.
struct Reservoir {
  static constexpr size_t kCapacity = 1u << 17;
  std::vector<double> v;
  size_t seen = 0;
  std::mt19937_64 rng{0x5eed};

  void Add(double x) {
    if (++seen <= kCapacity) {
      v.push_back(x);
    } else if (size_t j = rng() % seen; j < kCapacity) {
      v[j] = x;
    }
  }
  void Merge(const Reservoir& o) { v.insert(v.end(), o.v.begin(), o.v.end()); }
};

/// Everything measured in one run. Latencies in ms.
struct Measurements {
  std::vector<double> write_ms;
  double write_call_ms = 0;  ///< time spent inside write calls
  size_t resolved = 0;       ///< statements committed or rejected as predicted
  size_t reads = 0;
  double read_busy_ms = 0;   ///< time spent inside reads
  Reservoir read_ms, rebuild_acquire_ms, cached_acquire_ms, eval_ms;
  std::vector<double> parse_us;
  std::vector<double> query_ms;  ///< traced run: Query of the op's path
  std::vector<UpdateStats> stats;
  std::vector<double> late_ms;  ///< readers_5k: writer start past due time
  double check_ms = 0;          ///< untimed postcondition queries
};

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec) {}

  int Run();

 private:
  Status Setup();
  void RunPerOp();
  void RunBatch();
  void RunReaders();
  /// Parses and applies one statement; latency counts from `due` when the
  /// op was scheduled (open loop), from the call otherwise.
  void WriteOne(const Op& op, Clock::time_point due, bool fingerprint);
  void WriteBatch(const std::vector<Op>& ops);
  /// Checks the postconditions of every op committed since the last call.
  void CheckCommitted();
  void ReadBurst(size_t n);
  /// One timed read (AcquireSnapshot + Snapshot::Eval) into `m`; false
  /// when the read failed.
  bool TimedRead(size_t idx, Measurements* m, ReadSample* sample);
  void FinalChecks();
  void Replay(std::vector<ReadSample> samples);
  void Fail(const std::string& what);
  void PrintResult();

  Args args_;
  WorkloadSpec spec_;
  std::unique_ptr<UpdateSystem> sys_;
  BaseModel base_;
  std::unique_ptr<OpStream> stream_;
  std::vector<ReadPath> pool_;
  std::vector<xvu::Path> pool_paths_;
  std::mt19937_64 read_rng_;
  Measurements m_;
  std::vector<Op> committed_;  ///< committed, postcondition not yet checked
  std::vector<Op> applied_;  ///< readers_5k: the writer's stream, in order
  std::vector<ReadSample> samples_;  ///< readers_5k: reads to replay
  double setup_s_ = 0;
  double publish_ms_ = 0;
  double reach_ms_ = 0;
  double peak_rss_mb_ = 0;
  size_t fingerprints_left_ = 0;
  std::atomic<size_t> attempted_{0};
  std::atomic<size_t> failed_{0};
  bool correct_ = true;
  std::mutex log_mu_;
  size_t logged_ = 0;
  /// Registry counters around the measured window.
  std::map<std::string, uint64_t> counters_before_, counters_after_;
};

const char* const kCounters[] = {
    "xvu.snapshot.state_rebuilds", "xvu.snapshot.eval.memo_hits",
    "xvu.snapshot.eval.memo_misses", "xvu.sat.runs", "xvu.sat.conflicts",
    "xvu.sat.flips", "xvu.pool.jobs"};

void Bench::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(log_mu_);
  if (++logged_ <= 20) std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

/// The base tables: the synthetic generator's own default instance at the
/// workload's |C|. They do not vary with --seed: |M| of the generated DAG
/// swings by a third across generator seeds (0.80M to 1.07M pairs at
/// |C|=20k over seeds 11-25), and snapshot rebuilds scale with |M|, so a
/// per-seed dataset would make the read metrics measure the dataset draw.
/// --seed drives everything the workload does with the tables.
xvu::SyntheticSpec DatasetSpec(size_t num_c) {
  xvu::SyntheticSpec spec;
  spec.num_c = num_c;
  return spec;
}

Status Bench::Setup() {
  auto db = xvu::MakeSyntheticDatabase(DatasetSpec(spec_.num_c));
  if (!db.ok()) return db.status();
  auto atg = xvu::MakeSyntheticAtg(*db);
  if (!atg.ok()) return atg.status();
  UpdateSystem::Options options;
  options.worker_threads = args_.workers > 0 ? args_.workers : spec_.workers;
  options.obs.tracing = args_.trace;
  options.obs.trace_ring_events = 1u << 17;
  auto sys = UpdateSystem::Create(std::move(*atg), std::move(*db), options);
  if (!sys.ok()) return sys.status();
  sys_ = std::move(*sys);
  setup_s_ = MsBetween(kProcessStart, Clock::now()) / 1000;

  base_ = BaseModel::Scan(sys_->database());
  stream_ = std::make_unique<OpStream>(base_, args_.seed);
  pool_ = stream_->ReadPool(spec_.workers > 1);
  for (const ReadPath& rp : pool_) {
    auto p = xvu::ParseXPath(rp.xpath);
    if (!p.ok()) return p.status();
    pool_paths_.push_back(std::move(*p));
  }
  read_rng_.seed(args_.seed + 17);
  fingerprints_left_ =
      spec_.num_c >= 20000 ? kFingerprintSamples20k : static_cast<size_t>(-1);
  for (const char* c : kCounters) counters_before_[c] = CounterValue(c);
  return Status::OK();
}

void Bench::WriteOne(const Op& op, Clock::time_point due, bool fingerprint) {
  ++attempted_;
  std::string before;
  if (!op.accept && fingerprint && fingerprints_left_ > 0) {
    --fingerprints_left_;
    before = sys_->DebugFingerprint();
  }
  const Clock::time_point start = Clock::now();
  if (due == Clock::time_point{}) due = start;
  Status st;
  xvu::Path path;  // empty until the statement parses
  {
    xvu::obs::TraceSpan span("bench.write");
    const Clock::time_point p0 = Clock::now();
    auto u = xvu::ParseUpdate(op.stmt, sys_->atg());
    m_.parse_us.push_back(MsBetween(p0, Clock::now()) * 1000);
    if (!u.ok()) {
      st = u.status();
    } else if (u->kind == xvu::XmlUpdate::Kind::kInsert) {
      st = sys_->ApplyInsert(u->elem_type, u->attr, u->path);
      path = u->path;
    } else {
      st = sys_->ApplyDelete(u->path);
      path = u->path;
    }
  }
  const Clock::time_point end = Clock::now();
  m_.write_ms.push_back(MsBetween(due, end));
  m_.write_call_ms += MsBetween(start, end);
  m_.stats.push_back(sys_->last_stats());
  if (args_.trace && !path.empty()) {
    const Clock::time_point q0 = Clock::now();
    auto r = sys_->Query(path);
    m_.query_ms.push_back(MsBetween(q0, Clock::now()));
  }
  if (std::string v = CheckVerdict(op.accept, st); !v.empty()) {
    ++failed_;
    Fail(op.stmt + ": " + v);
    return;
  }
  ++m_.resolved;
  if (st.ok()) {
    stream_->Commit(op);
    committed_.push_back(op);
  } else if (!before.empty() && sys_->DebugFingerprint() != before) {
    ++failed_;
    Fail(op.stmt + ": rejected but the state changed");
  }
}

void Bench::WriteBatch(const std::vector<Op>& ops) {
  attempted_ += ops.size();
  const Clock::time_point start = Clock::now();
  Status st;
  {
    xvu::obs::TraceSpan span("bench.write");
    xvu::UpdateBatch batch;
    for (const Op& op : ops) {
      const Clock::time_point p0 = Clock::now();
      auto u = xvu::ParseUpdate(op.stmt, sys_->atg());
      m_.parse_us.push_back(MsBetween(p0, Clock::now()) * 1000);
      if (!u.ok()) {
        st = u.status();
        break;
      }
      if (u->kind == xvu::XmlUpdate::Kind::kInsert) {
        batch.Insert(u->elem_type, u->attr, u->path);
      } else {
        batch.Delete(u->path);
      }
    }
    if (st.ok()) st = sys_->ApplyBatch(batch);
  }
  const Clock::time_point end = Clock::now();
  m_.write_ms.push_back(MsBetween(start, end));
  m_.write_call_ms += MsBetween(start, end);
  m_.stats.push_back(sys_->last_stats());
  if (args_.trace) {
    // One op per batch: a Query of every op's path would dwarf the batch.
    auto p = xvu::ParseUpdate(ops.front().stmt, sys_->atg());
    const Clock::time_point q0 = Clock::now();
    if (p.ok()) (void)sys_->Query(p->path);
    m_.query_ms.push_back(MsBetween(q0, Clock::now()));
  }
  if (std::string v = CheckVerdict(true, st); !v.empty()) {
    failed_ += ops.size();
    Fail("batch: " + v);
    return;
  }
  m_.resolved += ops.size();
  for (const Op& op : ops) stream_->Commit(op);
  committed_.insert(committed_.end(), ops.begin(), ops.end());
}

/// Postconditions by fresh Query on the live system: every inserted C or
/// B is selected under its parent, every deleted edge is gone. The ops
/// touch disjoint edges, so one check after a step of writes stands for
/// a check after each of them.
void Bench::CheckCommitted() {
  const std::vector<Op> ops = std::move(committed_);
  committed_.clear();
  for (bool buddies : {false, true}) {
    const std::string xpath = CheckXPath(ops, buddies);
    if (xpath.empty()) continue;
    std::vector<std::pair<int64_t, int64_t>> have, lack;
    for (const Op& op : ops) {
      if ((op.kind == OpKind::kBuddyInsert) != buddies) continue;
      (op.kind == OpKind::kLeafDelete ? lack : have)
          .emplace_back(op.parent, op.child);
    }
    xvu::obs::TraceSpan span("bench.check");
    const Clock::time_point c0 = Clock::now();
    auto r = sys_->Query(xpath);
    std::string v = r.ok() ? CheckPostcondition(EdgePairsOf(sys_->dag(), *r),
                                                have, lack)
                           : r.status().ToString();
    m_.check_ms += MsBetween(c0, Clock::now());
    if (!v.empty()) {
      failed_ += ops.size();
      Fail(xpath + ": " + v);
      return;
    }
  }
}

bool Bench::TimedRead(size_t idx, Measurements* m, ReadSample* sample) {
  static xvu::obs::Counter* const rebuilds =
      xvu::obs::MetricsRegistry::Instance().GetCounter(
          "xvu.snapshot.state_rebuilds");
  ++attempted_;
  xvu::obs::TraceSpan span("bench.read");
  const uint64_t before = rebuilds->Value();
  const Clock::time_point t0 = Clock::now();
  xvu::Snapshot snap = sys_->AcquireSnapshot();
  const Clock::time_point t1 = Clock::now();
  auto r = snap.Eval(pool_paths_[idx]);
  const Clock::time_point t2 = Clock::now();
  ++m->reads;
  m->read_busy_ms += MsBetween(t0, t2);
  m->read_ms.Add(MsBetween(t0, t2));
  (rebuilds->Value() != before ? m->rebuild_acquire_ms : m->cached_acquire_ms)
      .Add(MsBetween(t0, t1));
  m->eval_ms.Add(MsBetween(t1, t2));
  if (!r.ok()) {
    ++failed_;
    Fail(pool_[idx].xpath + ": " + r.status().ToString());
    return false;
  }
  if (sample != nullptr) {
    sample->epoch = snap.epoch();
    sample->path = idx;
    sample->answer = AnswerOf(snap.dag(), *r);
  }
  return true;
}

/// A burst of reads from the pool; the last one is compared with a live
/// Query of the quiesced system.
void Bench::ReadBurst(size_t n) {
  std::uniform_int_distribution<size_t> pick(0, pool_.size() - 1);
  ReadSample last;
  bool ok = true;
  for (size_t i = 0; i < n; ++i) {
    ok = TimedRead(pick(read_rng_), &m_, i + 1 == n ? &last : nullptr);
  }
  if (!ok) return;
  auto live = sys_->Query(pool_paths_[last.path]);
  if (!live.ok() || AnswerOf(sys_->dag(), *live) != last.answer) {
    ++failed_;
    Fail(pool_[last.path].xpath + ": snapshot read differs from live Query");
  }
}

void Bench::RunPerOp() {
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; round < kPerOpMinRounds ||
                         MsBetween(start, Clock::now()) < args_.seconds * 1000;
       ++round) {
    for (const Step& step : kPerOpRound) {
      for (const auto& [kind, cls] : step) {
        WriteOne(stream_->Next(kind, cls), {}, true);
      }
      CheckCommitted();
      ReadBurst(kPerOpBurst);
    }
  }
}

void Bench::RunBatch() {
  constexpr PathClass kClasses[] = {PathClass::kW1, PathClass::kW2,
                                    PathClass::kW3};
  const Clock::time_point start = Clock::now();
  size_t b = 0;
  for (size_t round = 0; round < kBatchMinRounds ||
                         MsBetween(start, Clock::now()) < args_.seconds * 1000;
       ++round) {
    for (size_t i = 0; i < kBatchesPerRound; ++i, ++b) {
      // Three W1 and three W2 leaf inserts, each three under one hot
      // parent (one shared evaluation), a W3 buddy insert and a leaf-edge
      // delete whose class rotates.
      std::vector<Op> ops;
      for (size_t j = 0; j < 6; ++j) {
        ops.push_back(stream_->NextHot(OpKind::kLeafInsert,
                                       j < 3 ? PathClass::kW1 : PathClass::kW2));
      }
      ops.push_back(stream_->NextHot(OpKind::kBuddyInsert, PathClass::kW3));
      ops.push_back(stream_->NextHot(OpKind::kLeafDelete, kClasses[b % 3]));
      WriteBatch(ops);
    }
    CheckCommitted();
    ReadBurst(kBatchBurst);
  }
}

void Bench::RunReaders() {
  std::vector<Op> ops;
  const size_t rounds = std::max(
      kReadersMinRounds,
      static_cast<size_t>(std::ceil(args_.seconds * kWriterRate / 11)));
  for (size_t r = 0; r < rounds; ++r) {
    for (const Step& step : kPerOpRound) {
      for (const auto& [kind, cls] : step) {
        ops.push_back(stream_->Next(kind, cls));
      }
    }
  }
  std::atomic<bool> stop{false};
  std::vector<Measurements> reads(kReaderThreads);
  std::vector<std::vector<ReadSample>> samples(kReaderThreads);
  std::vector<size_t> regressions(kReaderThreads, 0);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(args_.seed * 31 + t);
      std::uniform_int_distribution<size_t> pick(0, pool_.size() - 1);
      uint64_t last_epoch = 0;
      for (size_t n = 0; !stop.load(std::memory_order_acquire); ++n) {
        ReadSample s;
        if (!TimedRead(pick(rng), &reads[t], &s)) continue;
        if (s.epoch < last_epoch) ++regressions[t];
        last_epoch = s.epoch;
        if (n % kSampleEvery == 0 && samples[t].size() < kMaxSamplesPerReader) {
          samples[t].push_back(std::move(s));
        }
      }
    });
  }
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kWriterRate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Clock::time_point due = start + period * static_cast<int64_t>(i);
    std::this_thread::sleep_until(due);
    m_.late_ms.push_back(MsBetween(due, Clock::now()));
    // Fingerprints are compared in the replay: DebugFingerprint must not
    // race the readers' snapshot acquisitions.
    WriteOne(ops[i], due, false);
    CheckCommitted();
    applied_.push_back(ops[i]);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  std::vector<ReadSample> all;
  for (size_t t = 0; t < kReaderThreads; ++t) {
    m_.reads += reads[t].reads;
    m_.read_busy_ms += reads[t].read_busy_ms;
    m_.read_ms.Merge(reads[t].read_ms);
    m_.rebuild_acquire_ms.Merge(reads[t].rebuild_acquire_ms);
    m_.cached_acquire_ms.Merge(reads[t].cached_acquire_ms);
    m_.eval_ms.Merge(reads[t].eval_ms);
    if (regressions[t] > 0) {
      failed_ += regressions[t];
      Fail("reader " + std::to_string(t) + " saw its epoch go backwards");
    }
    for (ReadSample& s : samples[t]) all.push_back(std::move(s));
  }
  samples_ = std::move(all);
}

/// End-of-run checks, outside every timed region: the pool read through a
/// snapshot against the benchmark's own join over the current base
/// tables, the maintained DAG against Republish(), and |M| against an
/// ancestor-pair count of the DAG.
void Bench::FinalChecks() {
  const BaseModel now = BaseModel::Scan(sys_->database());
  xvu::Snapshot snap = sys_->AcquireSnapshot();
  for (size_t i = 0; i < pool_.size(); ++i) {
    auto r = snap.Eval(pool_paths_[i]);
    std::string v = r.ok() ? CheckAnswer(AnswerOf(snap.dag(), *r),
                                         ExpectedAnswer(now, pool_[i]))
                           : r.status().ToString();
    if (!v.empty()) {
      correct_ = false;
      Fail(pool_[i].xpath + ": " + v);
    }
  }
  const Clock::time_point p0 = Clock::now();
  auto rep = sys_->Republish();
  publish_ms_ = MsBetween(p0, Clock::now());
  if (!rep.ok()) {
    correct_ = false;
    Fail("Republish: " + rep.status().ToString());
    return;
  }
  if (std::string v = CheckEdges(sys_->dag().CanonicalEdges(),
                                 rep->CanonicalEdges());
      !v.empty()) {
    correct_ = false;
    Fail(v);
  }
  if (std::string v = CheckPairCount(sys_->reachability().size(),
                                     CountAncestorPairs(sys_->dag()));
      !v.empty()) {
    correct_ = false;
    Fail(v);
  }
  if (args_.trace) {
    const Clock::time_point r0 = Clock::now();
    auto topo = xvu::TopoOrder::Compute(*rep);
    if (topo.ok()) (void)xvu::Reachability::Compute(*rep, *topo);
    reach_ms_ = MsBetween(r0, Clock::now());
  }
}

/// readers_5k: replays the writer's stream on a fresh system built from
/// the same seed, single-threaded, and compares every sampled read with
/// a Query at the same epoch. Predicted rejections are fingerprinted here,
/// where no reader races DebugFingerprint.
void Bench::Replay(std::vector<ReadSample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const ReadSample& a, const ReadSample& b) {
              return a.epoch < b.epoch;
            });
  auto db = xvu::MakeSyntheticDatabase(DatasetSpec(spec_.num_c));
  auto atg = db.ok() ? xvu::MakeSyntheticAtg(*db)
                     : xvu::Result<xvu::Atg>(db.status());
  UpdateSystem::Options options;  // tracing off: the trace is written
  auto made = atg.ok() ? UpdateSystem::Create(std::move(*atg), std::move(*db),
                                              options)
                       : xvu::Result<std::unique_ptr<UpdateSystem>>(
                             atg.status());
  if (!made.ok()) {
    correct_ = false;
    Fail("replay set-up: " + made.status().ToString());
    return;
  }
  UpdateSystem& sys = **made;
  size_t next = 0;
  auto check_epoch = [&] {
    const uint64_t epoch = sys.read_epoch();
    for (; next < samples.size() && samples[next].epoch <= epoch; ++next) {
      const ReadSample& s = samples[next];
      if (s.epoch < epoch) {
        ++failed_;
        Fail("read at epoch " + std::to_string(s.epoch) +
             " matches no epoch of the replay");
        continue;
      }
      auto r = sys.Query(pool_paths_[s.path]);
      if (!r.ok() || AnswerOf(sys.dag(), *r) != s.answer) {
        ++failed_;
        Fail(pool_[s.path].xpath + " at epoch " + std::to_string(s.epoch) +
             ": concurrent read differs from the replay");
      }
    }
  };
  for (const Op& op : applied_) {
    check_epoch();
    auto u = xvu::ParseUpdate(op.stmt, sys.atg());
    if (!u.ok()) continue;  // already counted by the live run
    const std::string before = op.accept ? "" : sys.DebugFingerprint();
    Status st = u->kind == xvu::XmlUpdate::Kind::kInsert
                    ? sys.ApplyInsert(u->elem_type, u->attr, u->path)
                    : sys.ApplyDelete(u->path);
    if (!CheckVerdict(op.accept, st).empty()) {
      correct_ = false;
      Fail("replay verdict differs: " + op.stmt);
    } else if (!op.accept && sys.DebugFingerprint() != before) {
      ++failed_;
      Fail(op.stmt + ": rejected but the state changed");
    }
  }
  check_epoch();
  for (; next < samples.size(); ++next) {
    ++failed_;
    Fail("read at epoch " + std::to_string(samples[next].epoch) +
         " lies past the replay's last epoch");
  }
}

void Bench::PrintResult() {
  std::vector<std::pair<std::string, std::pair<double, const char*>>> out;
  auto put = [&](const char* name, double value, const char* unit) {
    out.push_back({name, {value, unit}});
  };
  const double write_p50 = Quantile(m_.write_ms, 0.5);
  const double read_p50 = Quantile(m_.read_ms.v, 0.5);
  const double read_p99 = Quantile(m_.read_ms.v, 0.99);
  const double reads_per_s =
      m_.read_busy_ms > 0
          ? static_cast<double>(m_.reads) * 1000 / m_.read_busy_ms
          : 0;
  std::fprintf(stderr,
               "%s seed %llu: %zu writes, %zu reads, setup %.3f s, write "
               "p50 %.3f p90 %.3f ms, read p50 %.4f p99 %.3f ms, %.1f "
               "reads/s, rss %.0f MB, writer late p50 %.3f max %.3f ms\n",
               spec_.name, static_cast<unsigned long long>(args_.seed),
               m_.write_ms.size(), m_.reads, setup_s_, write_p50,
               Quantile(m_.write_ms, 0.9), read_p50, read_p99, reads_per_s,
               peak_rss_mb_, Quantile(m_.late_ms, 0.5),
               Quantile(m_.late_ms, 1.0));
  if (!args_.trace) {
    put("setup_s", setup_s_, "s");
    put("write_p50_ms", write_p50, "ms");
    put("write_p90_ms", Quantile(m_.write_ms, 0.9), "ms");
    put("write_ops_per_s",
        m_.write_call_ms > 0
            ? static_cast<double>(m_.resolved) * 1000 / m_.write_call_ms
            : 0,
        "ops/s");
    put("read_p50_ms", read_p50, "ms");
    put("read_p99_ms", read_p99, "ms");
    put("reads_per_s", reads_per_s, "reads/s");
    put("peak_rss_mb", peak_rss_mb_, "MB");
  } else {
    // Per-write-call views of last_stats(); batch fields are 0 off the
    // batch path.
    std::map<std::string, std::vector<double>> f;
    for (const UpdateStats& s : m_.stats) {
      f["xpath"].push_back(s.xpath_seconds * 1000);
      f["translate"].push_back(s.translate_seconds * 1000);
      f["maintain"].push_back(s.maintain_seconds * 1000);
      f["selected"].push_back(static_cast<double>(s.selected));
      f["delta_v"].push_back(static_cast<double>(s.delta_v));
      f["delta_r"].push_back(static_cast<double>(s.delta_r));
      f["symbolic"].push_back(static_cast<double>(s.symbolic_candidates));
      f["journal"].push_back(static_cast<double>(s.journal_entries_replayed));
      if (s.used_sat) f["sat"].push_back(s.sat_seconds * 1000);
      if (s.batch_ops > 1) {
        f["fresh"].push_back(static_cast<double>(s.xpath_evaluations));
        f["fallback"].push_back(static_cast<double>(s.fallback_evals));
        f["dedup"].push_back(static_cast<double>(s.dedup_ops));
        f["served"].push_back(
            static_cast<double>(s.xpath_cache_hits + s.delta_patches));
      }
    }
    const double calls = static_cast<double>(std::max<size_t>(m_.stats.size(), 1));
    auto delta = [&](const char* c) {
      return static_cast<double>(counters_after_[c] - counters_before_[c]);
    };
    const double memo = delta("xvu.snapshot.eval.memo_hits") +
                        delta("xvu.snapshot.eval.memo_misses");
    put("xpath.parse_us", Quantile(m_.parse_us, 0.5), "us");
    put("eval.op_ms", Quantile(f["xpath"], 0.5), "ms");
    put("eval.query_ms", Quantile(m_.query_ms, 0.5), "ms");
    put("eval.selected_nodes", Mean(f["selected"]), "count/write");
    put("batch.fresh_evals", Mean(f["fresh"]), "count/batch");
    // Every op of a batch counts once: as a cache hit (duplicates of a
    // path included), a journal patch, or a fresh evaluation.
    const double served = Sum(f["served"]);
    put("batch.cache_served_ratio",
        served > 0 ? served / (served + Sum(f["fresh"])) : 0, "ratio");
    put("batch.fallback_evals", Mean(f["fallback"]), "count/batch");
    put("batch.dedup_ops", Mean(f["dedup"]), "count/batch");
    put("translate.op_ms", Quantile(f["translate"], 0.5), "ms");
    put("translate.delta_v_rows", Mean(f["delta_v"]), "count/write");
    put("translate.delta_r_ops", Mean(f["delta_r"]), "count/write");
    put("translate.symbolic_candidates", Mean(f["symbolic"]), "count/write");
    put("sat.ms", Quantile(f["sat"], 0.5), "ms");
    put("sat.runs", delta("xvu.sat.runs") / calls, "count/write");
    put("sat.conflicts", delta("xvu.sat.conflicts") / calls, "count/write");
    put("sat.flips", delta("xvu.sat.flips") / calls, "count/write");
    put("maintain.op_ms", Quantile(f["maintain"], 0.5), "ms");
    put("maintain.journal_entries", Mean(f["journal"]), "count/write");
    put("dag.nodes", static_cast<double>(sys_->dag().num_nodes()), "count");
    put("dag.m_pairs", static_cast<double>(sys_->reachability().size()),
        "count");
    put("setup.publish_ms", publish_ms_, "ms");
    put("setup.reach_ms", reach_ms_, "ms");
    put("snapshot.rebuild_acquire_ms",
        Quantile(m_.rebuild_acquire_ms.v, 0.5), "ms");
    put("snapshot.cached_acquire_ms", Quantile(m_.cached_acquire_ms.v, 0.5),
        "ms");
    put("snapshot.eval_ms", Quantile(m_.eval_ms.v, 0.5), "ms");
    put("snapshot.memo_hit_ratio",
        memo > 0 ? delta("xvu.snapshot.eval.memo_hits") / memo : 0, "ratio");
    put("snapshot.rebuilds", delta("xvu.snapshot.state_rebuilds") / calls,
        "count/write");
    put("pool.jobs", delta("xvu.pool.jobs") / calls, "count/write");
    put("traced.write_p50_ms", write_p50, "ms");
    put("traced.read_p50_ms", read_p50, "ms");
    put("traced.reads_per_s", reads_per_s, "reads/s");
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_.load()) +
          ", \"failed\": " + std::to_string(failed_.load()) +
          ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", out[i].second.first);
    json += (i > 0 ? ", \"" : "\"") + out[i].first + "\": {\"value\": " +
            value + ", \"unit\": \"" + out[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Bench::Run() {
  if (Status st = Setup(); !st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 2;
  }
  if (std::strcmp(spec_.name, "perop_20k") == 0) {
    RunPerOp();
  } else if (std::strcmp(spec_.name, "batch_20k") == 0) {
    RunBatch();
  } else {
    RunReaders();
  }
  peak_rss_mb_ = PeakRssMb();
  for (const char* c : kCounters) counters_after_[c] = CounterValue(c);
  if (args_.trace) {
    const std::string path = args_.out + "/trace_" + spec_.name + "_" +
                             std::to_string(args_.seed) + ".json";
    std::ofstream(path) << xvu::obs::ExportChromeTrace();
  }
  const Clock::time_point f0 = Clock::now();
  FinalChecks();
  if (!applied_.empty()) Replay(std::move(samples_));
  std::fprintf(stderr,
               "time: writes %.1f s, reads %.1f s, postcondition checks %.1f "
               "s, final checks %.1f s\n",
               m_.write_call_ms / 1000, m_.read_busy_ms / 1000,
               m_.check_ms / 1000, MsBetween(f0, Clock::now()) / 1000);
  PrintResult();
  return correct_ ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value);
    } else if (key == "--trace") {
      args->trace = std::atoi(value) != 0;
    } else if (key == "--out") {
      args->out = value;
    } else if (key == "--workers") {
      args->workers = std::strtoull(value, nullptr, 10);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace
}  // namespace xvubench

int main(int argc, char** argv) {
  using namespace xvubench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: xvu_e2e --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR] [--workers N]\n");
    return 2;
  }
  for (const WorkloadSpec& spec : kWorkloads) {
    if (args.workload != spec.name) continue;
    try {
      return Bench(args, spec).Run();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
