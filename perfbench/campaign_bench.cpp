// Campaign benchmark: end-to-end recovery-campaign throughput of
// service::CampaignService, with a traced per-layer breakdown.
//
// One process runs one workload (see kWorkloads). Each *rep* builds
// ppsim_campaignd's cell shape ({burst, storm} x {1, n/4} faults, P_PL,
// PlParams::make(n, 4), recovery budget 60000 n^2 + 6e7) with a seed_base
// derived from (--seed, rep), runs it through CampaignService::run with a
// file frame sink and a checkpoint file, and checks the outputs:
//   * every NDJSON frame parses and matches its cell and shard;
//   * per-cell trial counts add up to the plan, each trial exactly once;
//   * the fold of the parsed frames equals results();
//   * no shard is quarantined;
//   * a sample of trials per cell (indices drawn from the seed) matches a
//     standalone core::Runner replay (analysis::detail::recovery_trial).
// Any failure exits 3 without a result line.
//
// --trace 0 measures the end-to-end metrics on untraced reps. --trace 1
// runs untraced reps (the overhead reference), the same reps traced with
// and without the checkpoint path, and a single-thread kernel ceiling, and
// prints the per-layer metrics. Spans are taken only around calls into
// public boundaries — the ScenarioSpec callbacks, the FrameSink virtuals
// (a wrapping sink), CampaignService construction and run(), the shard
// entry point the service calls, and EnsembleRunner for the ceiling — and
// are written to --spans at exit. Nothing inside src/ is instrumented.
//
// The last line on stdout is the result object; the human-readable metric
// table goes to stderr. perfbench/run.py builds this file and drives it.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "core/stream_tags.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"

namespace perfbench {

using namespace ppsim;
namespace fs = std::filesystem;

using P = pl::PlProtocol;
using State = P::State;
using Params = P::Params;
using RingSpec = analysis::ScenarioSpec<P>;

/// A ring in every respect but its type. The traced reps run
/// CampaignService<P, TracedRing>, whose call to the shard entry point lands
/// in the explicit specialization below: it opens the shard span and
/// forwards to the RingTopology instantiation the untraced reps run.
struct TracedRing : core::RingTopology {
  using core::RingTopology::RingTopology;
};
using TracedSpec = analysis::ScenarioSpec<P, TracedRing>;

struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[nodiscard]] std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Tracing -----------------------------------------------------------------

/// One span. Leaf callbacks (initial / inject / recovered) run up to a
/// million times a second, so they are folded per shard into one aggregate
/// span: `calls` > 1 and `total_ns` is their summed time, [t0, t1] is the
/// enclosing shard.
struct Span {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int64_t total_ns = 0;
  std::int64_t calls = 1;
  int thread = 0;
  std::int64_t cell = -1;   ///< shard spans: cell index
  std::int64_t first = -1;  ///< shard spans: first trial
  std::int64_t count = 0;   ///< shard spans: trials
  bool inferred = false;    ///< derived from neighbouring spans, not a call
};

/// Per-thread span buffers, kept in memory until the spans are written out.
class Tracer {
 public:
  std::int64_t next_id() { return next_id_.fetch_add(1) + 1; }

  void record(Span s) {
    Local& l = local();
    s.thread = l.thread;
    l.buf->push_back(s);
  }

  /// Every span recorded so far. Call only while no other thread records.
  [[nodiscard]] std::vector<Span> collect() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& b : bufs_) out.insert(out.end(), b->begin(), b->end());
    return out;
  }

  /// Span id of the run() call in progress: the parent of worker spans.
  std::atomic<std::int64_t> current_run{0};

 private:
  struct Local {
    std::vector<Span>* buf = nullptr;
    int thread = 0;
  };
  Local& local() {
    thread_local Local l;
    if (l.buf == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      bufs_.push_back(std::make_unique<std::vector<Span>>());
      l.buf = bufs_.back().get();
      l.thread = static_cast<int>(bufs_.size()) - 1;
    }
    return l;
  }

  std::atomic<std::int64_t> next_id_{0};
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> bufs_;  // guarded by mu_
};

Tracer g_tracer;

/// RAII span on the calling thread.
class Scoped {
 public:
  explicit Scoped(const char* name, std::int64_t parent)
      : id_(g_tracer.next_id()), parent_(parent), name_(name),
        t0_(now_ns()) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() {
    Span s;
    s.name = name_;
    s.id = id_;
    s.parent = parent_;
    s.t0 = t0_;
    s.t1 = now_ns();
    s.total_ns = s.t1 - s.t0;
    g_tracer.record(s);
  }
  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  std::int64_t id_;
  std::int64_t parent_;
  const char* name_;
  std::int64_t t0_;
};

/// Leaf-callback totals of the shard running on this thread.
struct LeafAcc {
  std::int64_t ns[3] = {0, 0, 0};
  std::int64_t calls[3] = {0, 0, 0};
};
constexpr const char* kLeafNames[3] = {"initial", "inject", "recovered"};
enum Leaf { kInitial = 0, kInject = 1, kRecovered = 2 };
thread_local LeafAcc t_leaf;

/// Ring specs (callbacks wrapped in leaf timers) and cell indices of the
/// traced campaign, keyed by plan.tag. Written before a traced run starts,
/// read-only while it runs.
struct TracedCell {
  RingSpec spec;
  std::int64_t cell = 0;
};
std::map<std::uint64_t, TracedCell> g_traced_cells;

/// The shard span: the service's call into the shard entry point.
class ShardSpan {
 public:
  ShardSpan(std::int64_t cell, std::size_t first, std::size_t count)
      : id_(g_tracer.next_id()), parent_(g_tracer.current_run.load()),
        cell_(cell), first_(static_cast<std::int64_t>(first)),
        count_(static_cast<std::int64_t>(count)), t0_(now_ns()) {
    t_leaf = LeafAcc{};
  }
  ShardSpan(const ShardSpan&) = delete;
  ShardSpan& operator=(const ShardSpan&) = delete;
  ~ShardSpan() {
    Span s;
    s.name = "shard";
    s.id = id_;
    s.parent = parent_;
    s.t0 = t0_;
    s.t1 = now_ns();
    s.total_ns = s.t1 - s.t0;
    s.cell = cell_;
    s.first = first_;
    s.count = count_;
    g_tracer.record(s);
    for (int k = 0; k < 3; ++k) {
      if (t_leaf.calls[k] == 0) continue;
      Span a = s;
      a.name = kLeafNames[k];
      a.id = g_tracer.next_id();
      a.parent = id_;
      a.total_ns = t_leaf.ns[k];
      a.calls = t_leaf.calls[k];
      g_tracer.record(a);
    }
  }

 private:
  std::int64_t id_;
  std::int64_t parent_;
  std::int64_t cell_;
  std::int64_t first_;
  std::int64_t count_;
  std::int64_t t0_;
};

}  // namespace perfbench

namespace ppsim::analysis::detail {

template <>
void ensemble_recovery_shard<perfbench::P, perfbench::TracedRing>(
    const perfbench::Params& params, const perfbench::TracedSpec& spec,
    std::size_t first, std::size_t count, std::span<RecoveryTrial> out) {
  const perfbench::TracedCell& tc =
      perfbench::g_traced_cells.at(spec.plan.tag);
  perfbench::ShardSpan span(tc.cell, first, count);
  ensemble_recovery_shard<perfbench::P, core::RingTopology>(
      params, tc.spec, first, count, out);
}

}  // namespace ppsim::analysis::detail

namespace perfbench {

/// Wrapping frame sink: notes when the first frame arrives and, when
/// traced, records a span around every FrameSink call.
class ObservedSink final : public service::FrameSink {
 public:
  ObservedSink(service::FrameSink& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  void write(const char* data, std::size_t len) override {
    if (first_write_ns_ == 0) first_write_ns_ = now_ns();
    if (!traced_) return inner_.write(data, len);
    Scoped s("sink.write", g_tracer.current_run.load());
    inner_.write(data, len);
  }
  void flush() override {
    ++flushes_;
    if (!traced_) return inner_.flush();
    Scoped s("sink.flush", g_tracer.current_run.load());
    inner_.flush();
  }
  void truncate_to(std::uint64_t offset) override {
    if (!traced_) return inner_.truncate_to(offset);
    Scoped s("sink.truncate", g_tracer.current_run.load());
    inner_.truncate_to(offset);
  }
  [[nodiscard]] std::uint64_t offset() const override {
    ++offsets_;
    if (!traced_) return inner_.offset();
    Scoped s("sink.offset", g_tracer.current_run.load());
    return inner_.offset();
  }

  /// Starts a run() call's bookkeeping.
  void reset() {
    first_write_ns_ = 0;
    flushes_ = 0;
    offsets_ = 0;
  }

  /// Called by the service under the emitter lock or after its pool joined,
  /// so these need no synchronization; read them after run() returns.
  [[nodiscard]] std::int64_t first_write_ns() const { return first_write_ns_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::uint64_t offsets() const { return offsets_; }

 private:
  service::FrameSink& inner_;
  bool traced_;
  std::int64_t first_write_ns_ = 0;
  std::uint64_t flushes_ = 0;
  mutable std::uint64_t offsets_ = 0;
};

// --- Workloads ---------------------------------------------------------------

/// Why each workload exists is recorded in BENCHMARK.json.
struct Workload {
  const char* name;
  int n;
  std::int64_t trials;      ///< per cell (4 cells)
  std::int64_t tiny_trials; ///< per cell under --tiny (self-test)
  double loss_p;            ///< omission loss for the whole trial
  bool resume_leg;          ///< pause at half, resume in a fresh service
  int samples;              ///< replayed trials per cell per rep
};

/// At n=256 a cell is two full 46-ring shards, so that a run holds about
/// a dozen reps.
constexpr Workload kWorkloads[] = {
    {"ckpt-heavy-n16", 16, 8192, 256, 0.0, true, 4},
    {"kernel-heavy-n256", 256, 92, 4, 0.0, false, 1},
    {"generic-lane-n64", 64, 1024, 64, 0.1, false, 3},
};

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_expected = false;
  std::string tmp;
  std::string spans;
  std::string fs_type = "unknown";
};

[[nodiscard]] std::int64_t trials_per_cell(const Options& o) {
  return o.tiny ? o.w->tiny_trials : o.w->trials;
}

/// ppsim_campaignd's cells (examples/ppsim_campaignd.cpp), with the seed
/// base of this rep and the workload's scheduler faults.
[[nodiscard]] std::vector<std::pair<Params, RingSpec>> make_cells(
    const Options& o, std::uint64_t seed_base) {
  const Params p = pl::PlParams::make(o.w->n, 4);
  const auto n_u = static_cast<std::uint64_t>(p.n);
  std::vector<std::pair<Params, RingSpec>> cells;
  std::uint64_t tag = 1;
  for (int faults : {1, p.n / 4}) {
    analysis::TrialPlan plan;
    plan.trials = trials_per_cell(o);
    plan.max_steps = 60'000ULL * n_u * n_u + 60'000'000ULL;
    plan.seed_base = seed_base;
    for (int storm = 0; storm < 2; ++storm) {
      plan.tag = analysis::campaign_tag(tag++, p.n, faults);
      RingSpec spec = analysis::make_recovery_scenario<P>(
          storm ? "storm" : "burst",
          storm ? analysis::storm_schedule(faults, n_u)
                : analysis::burst_schedule(faults),
          plan);
      spec.sched_faults.loss_p = o.w->loss_p;
      cells.emplace_back(p, std::move(spec));
    }
  }
  return cells;
}

/// The traced service's cells: same names, plans, schedules and faults (so
/// the same digest and frames), with the callbacks wrapped in leaf timers
/// and registered for the shard specialization. The TracedSpec carries no
/// inject: the specialization runs the registered ring spec instead.
[[nodiscard]] std::vector<std::pair<Params, TracedSpec>> make_traced_cells(
    const std::vector<std::pair<Params, RingSpec>>& cells) {
  g_traced_cells.clear();
  std::vector<std::pair<Params, TracedSpec>> out;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const RingSpec& base = cells[c].second;
    RingSpec ring = base;
    ring.initial = [f = base.initial](const Params& p,
                                      core::Xoshiro256pp& rng) {
      const std::int64_t t0 = now_ns();
      auto cfg = f(p, rng);
      t_leaf.ns[kInitial] += now_ns() - t0;
      ++t_leaf.calls[kInitial];
      return cfg;
    };
    ring.inject = [f = base.inject](core::RingView<P> r, int faults,
                                    core::Xoshiro256pp& rng) {
      const std::int64_t t0 = now_ns();
      f(r, faults, rng);
      t_leaf.ns[kInject] += now_ns() - t0;
      ++t_leaf.calls[kInject];
    };
    ring.recovered = [f = base.recovered](std::span<const State> cfg,
                                          const Params& p) {
      const std::int64_t t0 = now_ns();
      const bool ok = f(cfg, p);
      t_leaf.ns[kRecovered] += now_ns() - t0;
      ++t_leaf.calls[kRecovered];
      return ok;
    };
    g_traced_cells[base.plan.tag] =
        TracedCell{std::move(ring), static_cast<std::int64_t>(c)};
    TracedSpec t;
    t.name = base.name;
    t.initial = base.initial;
    t.schedule = base.schedule;
    t.recovered = base.recovered;
    t.plan = base.plan;
    t.sched_faults = base.sched_faults;
    out.emplace_back(cells[c].first, std::move(t));
  }
  return out;
}

[[nodiscard]] std::uint64_t rep_seed_base(const Options& o, int rep) {
  return core::derive_seed(o.seed, 0xBE7C, static_cast<std::uint64_t>(rep));
}

[[nodiscard]] std::uint64_t last_injection_offset(const RingSpec& spec) {
  std::uint64_t at = 0;
  for (const analysis::FaultEvent& ev : spec.schedule)
    at = std::max(at, ev.at_step);
  return at;
}

// --- Frame parsing -----------------------------------------------------------

/// Minimal strict JSON reader for the frame schema: objects, arrays,
/// strings without escapes beyond \" \\ \/, and integers.
struct Json {
  using Object = std::map<std::string, Json>;
  using Array = std::vector<Json>;
  std::variant<std::int64_t, std::string, Array, Object> v;
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view s) : s_(s) {}
  Json parse() {
    Json j = value();
    if (pos_ != s_.size()) fail("trailing bytes");
    return j;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw CheckFailed("frame does not parse: " + std::string(what) +
                      " at byte " + std::to_string(pos_));
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }
  Json value() {
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json{string()};
    if (c == '-' || (c >= '0' && c <= '9')) return integer();
    fail("unexpected value");
  }
  Json object() {
    expect('{');
    Json::Object o;
    if (peek() == '}') {
      ++pos_;
      return Json{std::move(o)};
    }
    for (;;) {
      std::string k = string();
      expect(':');
      if (!o.emplace(std::move(k), value()).second) fail("duplicate key");
      if (peek() == '}') {
        ++pos_;
        return Json{std::move(o)};
      }
      expect(',');
    }
  }
  Json array() {
    expect('[');
    Json::Array a;
    if (peek() == ']') {
      ++pos_;
      return Json{std::move(a)};
    }
    for (;;) {
      a.push_back(value());
      if (peek() == ']') {
        ++pos_;
        return Json{std::move(a)};
      }
      expect(',');
    }
  }
  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character");
      if (c == '\\') {
        const char e = peek();
        if (e != '"' && e != '\\' && e != '/') fail("unsupported escape");
        out.push_back(e);
        ++pos_;
        continue;
      }
      out.push_back(c);
    }
  }
  Json integer() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!(peek() >= '0' && peek() <= '9')) fail("bad number");
    while (peek() >= '0' && peek() <= '9') ++pos_;
    if (peek() == '.' || peek() == 'e' || peek() == 'E')
      fail("non-integer number");
    const std::string digits(s_.substr(start, pos_ - start));
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(digits.c_str(), &end, 10);
    if (errno != 0 || *end != '\0') fail("integer out of range");
    return Json{static_cast<std::int64_t>(v)};
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

[[nodiscard]] const Json& field(const Json::Object& o, const char* k) {
  const auto it = o.find(k);
  if (it == o.end())
    throw CheckFailed(std::string("frame lacks field ") + k);
  return it->second;
}
[[nodiscard]] std::int64_t int_field(const Json::Object& o, const char* k) {
  const auto* v = std::get_if<std::int64_t>(&field(o, k).v);
  if (v == nullptr) throw CheckFailed(std::string("frame field not int: ") + k);
  return *v;
}
[[nodiscard]] std::string str_field(const Json::Object& o, const char* k) {
  const auto* v = std::get_if<std::string>(&field(o, k).v);
  if (v == nullptr)
    throw CheckFailed(std::string("frame field not a string: ") + k);
  return *v;
}
[[nodiscard]] std::vector<std::int64_t> ints_field(const Json::Object& o,
                                                   const char* k) {
  const auto* a = std::get_if<Json::Array>(&field(o, k).v);
  if (a == nullptr)
    throw CheckFailed(std::string("frame field not an array: ") + k);
  std::vector<std::int64_t> out;
  for (const Json& e : *a) {
    const auto* v = std::get_if<std::int64_t>(&e.v);
    if (v == nullptr || *v < 0)
      throw CheckFailed(std::string("frame array entry not a count: ") + k);
    out.push_back(*v);
  }
  return out;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}


// --- One rep -----------------------------------------------------------------

enum class Mode { kUntraced, kTraced, kTracedNoCheckpoint };

struct RepResult {
  double run_s = 0;             ///< summed wall of the run() calls
  double first_frame_s = 0;     ///< mean over run() calls
  int legs = 0;                 ///< run() calls
  std::int64_t trials = 0;
  std::int64_t failed = 0;
  double interactions = 0;
  std::uint64_t frames = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t flushes = 0;
  std::uint64_t checkpoint_bytes = 0;  ///< computed: persists x file size
  std::vector<std::int64_t> run_span_ids;
};

[[nodiscard]] std::size_t shard_width(const Options& o) {
  return analysis::detail::ensemble_shard_rings(
      static_cast<std::size_t>(o.w->n) * sizeof(State));
}

[[nodiscard]] std::uint64_t shards_total(const Options& o) {
  const auto t = static_cast<std::uint64_t>(trials_per_cell(o));
  return 4 * ((t + shard_width(o) - 1) / shard_width(o));
}

/// Checks the frame stream, the fold, the plan and a replayed sample; fills
/// the trial, failure, frame and interaction counts of `rep`.
void check_outputs(const Options& o, int rep_index,
                   const std::vector<std::pair<Params, RingSpec>>& cells,
                   std::uint64_t digest,
                   const std::vector<analysis::CampaignResult>& results,
                   const std::string& frames, RepResult& rep) {
  const std::string digest_hex = service::digest_hex(digest);
  const auto width = static_cast<std::int64_t>(shard_width(o));
  std::vector<std::vector<analysis::RecoveryTrial>> trials(cells.size());
  std::vector<std::vector<char>> seen(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto t = static_cast<std::size_t>(cells[c].second.plan.trials);
    trials[c].resize(t);
    seen[c].assign(t, 0);
  }

  std::size_t pos = 0;
  while (pos < frames.size()) {
    const std::size_t eol = frames.find('\n', pos);
    require(eol != std::string::npos, "frame stream ends without newline");
    const Json j = JsonReader(std::string_view(frames).substr(pos, eol - pos))
                       .parse();
    pos = eol + 1;
    ++rep.frames;
    const auto* f = std::get_if<Json::Object>(&j.v);
    require(f != nullptr, "frame is not an object");
    require(int_field(*f, "schema_version") == service::kFrameSchemaVersion,
            "frame schema version");
    require(str_field(*f, "frame") == "shard", "frame kind");
    require(str_field(*f, "campaign") == digest_hex, "frame campaign digest");
    const std::int64_t c = int_field(*f, "cell");
    require(c >= 0 && c < static_cast<std::int64_t>(cells.size()),
            "frame cell index");
    const auto& [params, spec] = cells[static_cast<std::size_t>(c)];
    require(str_field(*f, "scenario") == spec.name, "frame scenario");
    require(int_field(*f, "n") == params.n, "frame n");
    require(int_field(*f, "faults") == analysis::total_faults(spec.schedule),
            "frame faults");
    const std::int64_t first = int_field(*f, "first_trial");
    const std::int64_t count = int_field(*f, "trials");
    const std::int64_t shard = int_field(*f, "shard");
    require(shard >= 0 && first == shard * width &&
                first < spec.plan.trials &&
                count == std::min(width, spec.plan.trials - first),
            "frame shard range");
    const auto flags = ints_field(*f, "flags");
    const auto stab = ints_field(*f, "stabilize_steps");
    const auto recv = ints_field(*f, "recovery_steps");
    require(flags.size() == static_cast<std::size_t>(count) &&
                stab.size() == flags.size() && recv.size() == flags.size(),
            "frame array lengths");
    std::int64_t stabilized = 0;
    std::int64_t healed = 0;
    auto& cell_seen = seen[static_cast<std::size_t>(c)];
    for (std::size_t i = 0; i < flags.size(); ++i) {
      const auto t = static_cast<std::size_t>(first) + i;
      require(cell_seen[t] == 0, "trial appears in two frames");
      cell_seen[t] = 1;
      require(flags[i] == 0 || flags[i] == 1 || flags[i] == 3,
              "frame flags value");
      analysis::RecoveryTrial& r = trials[static_cast<std::size_t>(c)][t];
      r.stabilized = (flags[i] & 1) != 0;
      r.healed = (flags[i] & 2) != 0;
      r.stabilize_steps = static_cast<std::uint64_t>(stab[i]);
      r.recovery_steps = static_cast<std::uint64_t>(recv[i]);
      require((r.stabilized || r.stabilize_steps == 0) &&
                  (r.healed || r.recovery_steps == 0),
              "frame step field set on a failed phase");
      stabilized += r.stabilized ? 1 : 0;
      healed += r.healed ? 1 : 0;
    }
    require(int_field(*f, "stabilized") == stabilized &&
                int_field(*f, "healed") == healed,
            "frame stabilized/healed counts");
  }

  const auto same_summary = [](const core::Summary& a,
                               const core::Summary& b) {
    return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
           a.min == b.min && a.p25 == b.p25 && a.median == b.median &&
           a.p75 == b.p75 && a.p90 == b.p90 && a.max == b.max;
  };
  require(results.size() == cells.size(), "results() cell count");
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const auto& [params, spec] = cells[c];
    for (char s : seen[c]) require(s == 1, "plan trial missing from frames");
    const analysis::RecoveryStats fold =
        analysis::detail::fold_recovery(trials[c]);
    const analysis::CampaignResult& r = results[c];
    require(r.scenario == spec.name && r.n == params.n &&
                r.faults == analysis::total_faults(spec.schedule) &&
                r.stats.trials == spec.plan.trials &&
                r.stats.trials == fold.trials &&
                r.stats.stabilization_failures ==
                    fold.stabilization_failures &&
                r.stats.recovery_failures == fold.recovery_failures &&
                r.stats.raw == fold.raw &&
                same_summary(r.stats.recovery, fold.recovery) &&
                same_summary(r.stats.stabilization, fold.stabilization),
            "fold of the frames differs from results() in cell " +
                std::to_string(c));

    // Replay a seed-drawn sample on a standalone Runner: the bit-identity
    // contract between the sharded ensemble path and the per-trial path.
    for (int k = 0; k < o.w->samples; ++k) {
      const std::uint64_t t =
          core::derive_seed(o.seed, 0x5A3B + c,
                            static_cast<std::uint64_t>(rep_index) * 64 +
                                static_cast<std::uint64_t>(k)) %
          static_cast<std::uint64_t>(spec.plan.trials);
      analysis::RecoveryTrial want =
          analysis::detail::recovery_trial<P>(params, spec, t);
      if (o.corrupt_expected && c == 0 && k == 0) ++want.recovery_steps;
      const analysis::RecoveryTrial& got = trials[c][t];
      require(got.stabilized == want.stabilized &&
                  got.healed == want.healed &&
                  got.stabilize_steps == want.stabilize_steps &&
                  got.recovery_steps == want.recovery_steps,
              "cell " + std::to_string(c) + " trial " + std::to_string(t) +
                  " differs from its standalone Runner replay");
    }

    // Interactions simulated, every phase, with the budget counted for
    // the phase that ran out.
    const std::uint64_t budget = spec.plan.max_steps;
    const std::uint64_t inject_at = last_injection_offset(spec);
    for (const analysis::RecoveryTrial& t : trials[c]) {
      ++rep.trials;
      if (!t.stabilized) {
        ++rep.failed;
        rep.interactions += static_cast<double>(budget);
        continue;
      }
      if (!t.healed) ++rep.failed;
      rep.interactions += static_cast<double>(
          t.stabilize_steps + inject_at +
          (t.healed ? t.recovery_steps : budget));
    }
  }
}

[[nodiscard]] std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One set-up service and its frame sink.
template <typename Topo>
struct Setup {
  std::unique_ptr<service::CampaignService<P, Topo>> svc;
  std::unique_ptr<service::FileFrameSink> file;
  std::unique_ptr<ObservedSink> sink;
};

/// Cell and spec construction, CampaignService construction and sink open:
/// the set-up a campaign pays before run().
template <typename Topo>
[[nodiscard]] Setup<Topo> set_up(const Options& o, std::uint64_t seed_base,
                                 Mode mode, std::uint64_t stop_after,
                                 int threads) {
  const fs::path dir(o.tmp);
  Setup<Topo> s;
  service::CampaignOptions opts;
  if (mode != Mode::kTracedNoCheckpoint)
    opts.checkpoint_path = (dir / "campaign.ckpt").string();
  // The service default, not campaignd's 1: with a checkpoint (two
  // fsyncs) after every shard, ckpt-heavy-n16 measured the host's fsync
  // latency, and its ten-seed spread swung from 0.05 to 0.65.
  opts.checkpoint_every_shards = 8;
  opts.threads = threads;
  opts.stop_after_shards = stop_after;
  auto cells = make_cells(o, seed_base);
  if constexpr (std::is_same_v<Topo, TracedRing>) {
    auto traced = make_traced_cells(cells);
    Scoped span("service.construct", 0);
    s.svc = std::make_unique<service::CampaignService<P, Topo>>(
        std::move(traced), opts);
  } else {
    s.svc = std::make_unique<service::CampaignService<P, Topo>>(
        std::move(cells), opts);
  }
  s.file = std::make_unique<service::FileFrameSink>(
      (dir / "campaign.frames.ndjson").string());
  s.sink = std::make_unique<ObservedSink>(*s.file, mode != Mode::kUntraced);
  return s;
}

void remove_campaign_files(const Options& o) {
  const fs::path dir(o.tmp);
  fs::remove(dir / "campaign.ckpt");
  fs::remove(dir / "campaign.frames.ndjson");
}

/// One run() call with its timing and sink bookkeeping.
template <typename Topo>
service::RunReport timed_run(const Options& o, Setup<Topo>& s, Mode mode,
                             RepResult& rep) {
  ObservedSink& sink = *s.sink;
  sink.reset();
  std::optional<Scoped> span;
  if (mode != Mode::kUntraced) {
    span.emplace("run", 0);
    g_tracer.current_run.store(span->id());
    rep.run_span_ids.push_back(span->id());
  }
  const std::int64_t t0 = now_ns();
  const service::RunReport r = s.svc->run(sink);
  const std::int64_t t1 = now_ns();
  span.reset();
  g_tracer.current_run.store(0);
  require(r.shards_quarantined == 0, "quarantined shards");
  require(sink.first_write_ns() > 0, "run() emitted no frame");
  rep.run_s += static_cast<double>(t1 - t0) * 1e-9;
  rep.first_frame_s += static_cast<double>(sink.first_write_ns() - t0) * 1e-9;
  rep.flushes += sink.flushes();
  // Every persist() writes the whole (fixed-size) checkpoint, and is the
  // only caller of offset() besides the final frame-bytes read.
  if (mode == Mode::kTraced)
    rep.checkpoint_bytes +=
        sink.offsets() * fs::file_size(fs::path(o.tmp) / "campaign.ckpt");
  ++rep.legs;
  return r;
}

/// One rep: set up, run (pausing at half and resuming in a fresh service
/// from the checkpoint and frame file on a resume-leg workload), check.
template <typename Topo>
RepResult run_rep(const Options& o, int rep_index, Mode mode, int threads) {
  const std::uint64_t seed_base = rep_seed_base(o, rep_index);
  remove_campaign_files(o);
  RepResult rep;
  const std::uint64_t stop = o.w->resume_leg ? shards_total(o) / 2 : 0;
  Setup<Topo> s = set_up<Topo>(o, seed_base, mode, stop, threads);
  service::RunReport r = timed_run(o, s, mode, rep);
  if (stop > 0) {
    require(r.status == service::RunStatus::kPaused && r.shards_run == stop,
            "first leg did not pause at half");
    // Without a checkpoint there is nothing to resume a fresh service
    // from: the same service continues from its in-memory progress (the
    // shard total is even, so its stop point is the end).
    if (mode != Mode::kTracedNoCheckpoint) {
      s = {};
      s = set_up<Topo>(o, seed_base, mode, 0, threads);
    }
    r = timed_run(o, s, mode, rep);
  }
  require(r.status == service::RunStatus::kComplete,
          "campaign did not complete");
  rep.frame_bytes = r.frame_bytes;
  rep.first_frame_s /= rep.legs;

  const auto results = s.svc->results();
  const std::uint64_t digest = s.svc->digest();
  s = {};  // close the frame file before reading it back
  const std::string text =
      slurp(fs::path(o.tmp) / "campaign.frames.ndjson");
  require(text.size() == rep.frame_bytes,
          "frame file size differs from the reported frame bytes");
  check_outputs(o, rep_index, make_cells(o, seed_base), digest, results, text,
                rep);
  remove_campaign_files(o);
  return rep;
}

// --- Kernel ceiling and lane probe -------------------------------------------

struct KernelProbe {
  double ceiling_ips = 0;
  bool word_lane = false;
  const char* lane = "generic";
  int rings = 0;
};

/// A shard-sized ensemble from the workload's initial configurations, with
/// its scheduler faults and one injection on ring 0, reports its lane; then,
/// for `budget_s` > 0, a single-thread fixed-step EnsembleRunner::run gives
/// the kernel ceiling.
[[nodiscard]] KernelProbe probe_kernel(const Options& o, double budget_s) {
  Scoped top("kernel.probe", 0);
  const auto cells = make_cells(o, rep_seed_base(o, 0));
  const auto& [params, spec] = cells[2];  // burst of n/4 faults
  KernelProbe k;
  k.rings = static_cast<int>(std::min<std::int64_t>(
      static_cast<std::int64_t>(shard_width(o)), spec.plan.trials));
  core::EnsembleRunner<P> ens(params, k.rings);
  for (int i = 0; i < k.rings; ++i) {
    const std::uint64_t seed = core::derive_seed(
        spec.plan.seed_base, spec.plan.tag, static_cast<std::uint64_t>(i));
    core::Xoshiro256pp cfg_rng(core::stream_seed(seed, core::streams::kConfig));
    const auto initial = spec.initial(params, cfg_rng);
    Scoped span("kernel.add_ring", top.id());
    ens.add_ring(initial, seed);
  }
  if (spec.sched_faults.active()) ens.set_scheduler_faults(spec.sched_faults);
  core::Xoshiro256pp fault_rng(core::stream_seed(
      core::derive_seed(spec.plan.seed_base, spec.plan.tag, 0),
      core::streams::kFaults));
  spec.inject(core::RingView<P>(ens, 0), spec.schedule.front().faults,
              fault_rng);
  {
    Scoped span("kernel.word_kernel_mode", top.id());
    k.word_lane = ens.word_kernel_mode();
  }
  k.lane = k.word_lane ? (ens.narrow_word_mode() ? "word (u32 mirror)"
                                                 : "word (u64 mirror)")
           : ens.packed_mode() ? "lut"
                               : "generic";

  if (budget_s <= 0) return k;
  constexpr std::uint64_t kBlock = 4096;
  ens.run(kBlock);  // warm-up
  std::uint64_t steps = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t t1 = t0;
  while (static_cast<double>(t1 - t0) * 1e-9 < budget_s) {
    Scoped span("kernel.run", top.id());
    ens.run(kBlock);
    steps += kBlock;
    t1 = now_ns();
  }
  k.ceiling_ips = static_cast<double>(steps) * k.rings /
                  (static_cast<double>(t1 - t0) * 1e-9);
  return k;
}

// --- Span analysis -----------------------------------------------------------

/// Layer totals over the traced runs. Per thread of a run, the timeline is
/// split into: shard spans (analysis / core / pl inside); the inferred
/// `service.emit` from a shard's end to the thread's next shard (frame
/// rendering, the emitter lock and reorder window, sink calls, periodic
/// checkpoints); `service.resume` from run() entry to the end of
/// truncate_to; `analysis.imbalance_wait` from a thread's last work to the
/// moment the last shard's work ends (the pool waits for the slowest
/// shard); and `service.finish` from there, or on run()'s own thread from
/// the final flush, to run()'s return (the final checkpoint). What is left
/// — mostly pool start-up — is unaccounted.
struct LayerSums {
  double capacity_ns = 0;
  double covered_ns = 0;
  double shard_ns = 0;
  double wait_ns = 0;
  double leaf_ns[3] = {0, 0, 0};
  double leaf_calls[3] = {0, 0, 0};
  double write_ns = 0;
  double resume_ns = 0;
  std::vector<double> shard_s;
};

[[nodiscard]] double union_ns(std::vector<std::pair<std::int64_t,
                                                   std::int64_t>> iv,
                              std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  std::int64_t cur_lo = 0;
  std::int64_t cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += static_cast<double>(cur_hi - cur_lo);
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += static_cast<double>(cur_hi - cur_lo);
  return total;
}

[[nodiscard]] LayerSums analyze(const std::vector<Span>& spans,
                                const std::vector<std::int64_t>& runs,
                                int threads, std::vector<Span>& inferred) {
  std::map<std::int64_t, const Span*> by_id;
  std::map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    by_id[s.id] = &s;
    children[s.parent].push_back(&s);
  }
  auto infer = [&](const char* name, std::int64_t parent, int thread,
                   std::int64_t t0, std::int64_t t1) {
    Span s;
    s.name = name;
    s.id = g_tracer.next_id();
    s.parent = parent;
    s.t0 = t0;
    s.t1 = t1;
    s.total_ns = t1 - t0;
    s.thread = thread;
    s.inferred = true;
    inferred.push_back(s);
  };

  LayerSums sums;
  using Interval = std::pair<std::int64_t, std::int64_t>;
  for (std::int64_t rid : runs) {
    const Span& run = *by_id.at(rid);
    sums.capacity_ns += static_cast<double>(run.t1 - run.t0) * threads;
    std::map<int, std::vector<const Span*>> on_thread;
    for (const Span* s : children[rid]) on_thread[s->thread].push_back(s);
    on_thread[run.thread];  // run()'s own thread drains shards too

    // run()'s final flush comes after the pool joined.
    std::int64_t finish_t0 = run.t0;
    for (const Span* s : on_thread[run.thread])
      if (std::strcmp(s->name, "sink.flush") == 0)
        finish_t0 = std::max(finish_t0, s->t0);
    if (finish_t0 == run.t0) finish_t0 = run.t1;

    std::map<int, std::vector<Interval>> iv;
    std::map<int, std::int64_t> last_end;
    std::int64_t join_t = run.t0;
    for (auto& [thread, list] : on_thread) {
      std::sort(list.begin(), list.end(),
                [](const Span* a, const Span* b) { return a->t0 < b->t0; });
      std::int64_t last = run.t0;
      for (std::size_t i = 0; i < list.size(); ++i) {
        const Span& s = *list[i];
        iv[thread].emplace_back(s.t0, s.t1);
        // run() truncates the sink once, on its own thread, after loading
        // the checkpoint.
        if (std::strcmp(s.name, "sink.truncate") == 0) {
          infer("service.resume", rid, thread, run.t0, s.t1);
          iv[thread].emplace_back(run.t0, s.t1);
          sums.resume_ns += static_cast<double>(s.t1 - run.t0);
        }
        if (std::strcmp(s.name, "sink.write") == 0)
          sums.write_ns += static_cast<double>(s.total_ns);
        if (s.t0 < finish_t0) last = std::max(last, s.t1);
        if (std::strcmp(s.name, "shard") != 0) continue;
        sums.shard_ns += static_cast<double>(s.total_ns);
        sums.shard_s.push_back(static_cast<double>(s.total_ns) * 1e-9);
        for (const Span* a : children[s.id])
          for (int k = 0; k < 3; ++k)
            if (std::strcmp(a->name, kLeafNames[k]) == 0) {
              sums.leaf_ns[k] += static_cast<double>(a->total_ns);
              sums.leaf_calls[k] += static_cast<double>(a->calls);
            }
        // The emit span runs to the next shard on this thread, or after
        // the last shard to the end of the thread's last sink call before
        // the final flush.
        std::int64_t end = s.t1;
        for (std::size_t j = i + 1; j < list.size(); ++j) {
          const Span& nx = *list[j];
          if (std::strcmp(nx.name, "shard") == 0) {
            end = nx.t0;
            break;
          }
          if (nx.t0 < finish_t0) end = std::max(end, nx.t1);
        }
        if (end > s.t1) {
          infer("service.emit", rid, thread, s.t1, end);
          iv[thread].emplace_back(s.t1, end);
        }
        last = std::max(last, end);
      }
      last_end[thread] = last;
      join_t = std::max(join_t, last);
    }
    join_t = std::min(join_t, finish_t0);

    for (auto& [thread, list] : iv) {
      const bool own = thread == run.thread;
      const std::int64_t wait_end = own ? finish_t0 : join_t;
      const std::int64_t last = std::min(last_end[thread], wait_end);
      if (wait_end > last) {
        infer("analysis.imbalance_wait", rid, thread, last, wait_end);
        list.emplace_back(last, wait_end);
        sums.wait_ns += static_cast<double>(wait_end - last);
      }
      infer("service.finish", rid, thread, wait_end, run.t1);
      list.emplace_back(wait_end, run.t1);
      sums.covered_ns += union_ns(std::move(list), run.t0, run.t1);
    }
  }
  return sums;
}

void write_spans(const Options& o, int threads,
                 const std::vector<Span>& spans,
                 const std::vector<Span>& inferred) {
  std::FILE* f = std::fopen(o.spans.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write span file %s\n", o.spans.c_str());
    return;
  }
  std::fprintf(f,
               "{\"meta\":{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,"
               "\"tmp_fs\":\"%s\",\"clock\":\"steady_clock ns\"}}\n",
               o.w->name, static_cast<unsigned long long>(o.seed), threads,
               o.fs_type.c_str());
  for (const auto* list : {&spans, &inferred})
    for (const Span& s : *list)
      std::fprintf(
          f,
          "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"thread\":%d,"
          "\"start\":%lld,\"end\":%lld,\"total_ns\":%lld,\"calls\":%lld,"
          "\"cell\":%lld,\"first\":%lld,\"count\":%lld,\"inferred\":%s}\n",
          s.name, static_cast<long long>(s.id),
          static_cast<long long>(s.parent), s.thread,
          static_cast<long long>(s.t0), static_cast<long long>(s.t1),
          static_cast<long long>(s.total_ns),
          static_cast<long long>(s.calls), static_cast<long long>(s.cell),
          static_cast<long long>(s.first), static_cast<long long>(s.count),
          s.inferred ? "true" : "false");
  std::fclose(f);
}

// --- Main --------------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

[[nodiscard]] double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Peak resident set of this process image, in MiB. VmHWM, not
/// getrusage(): ru_maxrss carries over the peak of the image before exec
/// (here the Python launcher).
[[nodiscard]] double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// min(CPUs this process may run on, 4).
[[nodiscard]] int bench_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp(cpus, 1, 4);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Set-ups timed back to back before every rep; setup_s is the median of
/// all of them, so that like the rep metrics it spans the whole run rather
/// than the host's state in its first milliseconds. The first set-up of a
/// batch follows a rep with cold caches and is not kept (neither are the
/// reps' own set-ups): it would make the distribution bimodal.
constexpr int kSetupsPerRep = 21;

int run(const Options& o) {
  // Keep freed memory in the heap. Otherwise glibc hands the results
  // arrays of a finished service back to the kernel, and every set-up
  // after the first page-faults them in again: on ckpt-heavy-n16 that was
  // ~85% of setup_s, a cost that follows the shared host's memory traffic
  // (its median moved by 40% between two sets of runs of the same code),
  // not the set-up work of the program.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const int threads = bench_threads();
  const std::int64_t start = now_ns();
  const auto since = [](std::int64_t t) {
    return static_cast<double>(now_ns() - t) * 1e-9;
  };
  std::fprintf(stderr, "workload %s: n=%d, %lld trials/cell x 4 cells, %llu "
               "shards, %d threads, tmp on %s\n",
               o.w->name, o.w->n,
               static_cast<long long>(trials_per_cell(o)),
               static_cast<unsigned long long>(shards_total(o)), threads,
               o.fs_type.c_str());

  const KernelProbe k =
      probe_kernel(o, o.trace ? std::min(0.5, 0.05 * o.seconds) : 0);
  std::fprintf(stderr, "lane: %s (%d-ring probe ensemble)\n", k.lane,
               k.rings);
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto tally = [&](const std::vector<RepResult>& reps) {
    for (const RepResult& r : reps) {
      attempted += r.trials;
      failed += r.failed;
    }
  };
  using Ring = core::RingTopology;

  if (!o.trace) {
    std::vector<double> setup;
    // Reps until the next one would end further past --seconds than
    // stopping now falls short of it.
    std::vector<RepResult> reps;
    double last = 0;
    do {
      const int r = static_cast<int>(reps.size());
      for (int i = 0; i <= kSetupsPerRep; ++i) {
        remove_campaign_files(o);
        const std::int64_t t = now_ns();
        const Setup<Ring> s =
            set_up<Ring>(o, rep_seed_base(o, r), Mode::kUntraced, 0, threads);
        if (i > 0) setup.push_back(since(t));
      }
      const std::int64_t t = now_ns();
      reps.push_back(run_rep<Ring>(o, r, Mode::kUntraced, threads));
      last = since(t);
    } while (since(start) + 0.5 * last < o.seconds);
    tally(reps);
    std::vector<double> tps, ips, ff;
    for (const RepResult& r : reps) {
      std::fprintf(stderr, "  rep: run() %.6f s, first frame %.6f s, %.6g "
                   "interactions\n",
                   r.run_s, r.first_frame_s, r.interactions);
      tps.push_back(r.trials / r.run_s);
      ips.push_back(r.interactions / r.run_s);
      ff.push_back(r.first_frame_s);
    }
    metrics = {
        {"trials_per_s", median(tps), "1/s"},
        {"interactions_per_s", median(ips), "1/s"},
        {"first_frame_s", median(ff), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
    std::fprintf(stderr, "medians over %zu reps; setup_s over %zu set-ups\n",
                 reps.size(), setup.size());
  } else {
    // The traced reps with and without the checkpoint path replay the
    // untraced reps, so those get a third of what is left, less the
    // tracing overhead.
    const double budget = std::max(0.0, o.seconds - since(start)) / 3.3;
    std::vector<RepResult> a, b, c;
    const std::int64_t ta = now_ns();
    double last = 0;
    do {
      const std::int64_t t = now_ns();
      a.push_back(run_rep<Ring>(o, static_cast<int>(a.size()),
                                Mode::kUntraced, threads));
      last = since(t);
    } while (since(ta) + last < budget);
    for (std::size_t i = 0; i < a.size(); ++i)
      b.push_back(run_rep<TracedRing>(o, static_cast<int>(i), Mode::kTraced,
                                      threads));
    for (std::size_t i = 0; i < a.size(); ++i)
      c.push_back(run_rep<TracedRing>(o, static_cast<int>(i),
                                      Mode::kTracedNoCheckpoint, threads));
    tally(a);
    tally(b);
    tally(c);

    const double reps = static_cast<double>(b.size());
    double a_run = 0, b_run = 0, c_run = 0, a_inter = 0, inter = 0;
    double frames = 0, frame_bytes = 0, flushes = 0, ckpt_bytes = 0;
    std::vector<std::int64_t> runs;
    for (std::size_t i = 0; i < a.size(); ++i) {
      a_run += a[i].run_s;
      a_inter += a[i].interactions;
      b_run += b[i].run_s;
      c_run += c[i].run_s;
      inter += b[i].interactions;
      frames += static_cast<double>(b[i].frames);
      frame_bytes += static_cast<double>(b[i].frame_bytes);
      flushes += static_cast<double>(b[i].flushes);
      ckpt_bytes += static_cast<double>(b[i].checkpoint_bytes);
      runs.insert(runs.end(), b[i].run_span_ids.begin(),
                  b[i].run_span_ids.end());
    }
    const std::vector<Span> spans = g_tracer.collect();
    std::vector<Span> inferred;
    const LayerSums L = analyze(spans, runs, threads, inferred);
    if (!o.spans.empty()) write_spans(o, threads, spans, inferred);

    const double shard_s = L.shard_ns * 1e-9;
    const double pl_s = L.leaf_ns[kRecovered] * 1e-9;
    const double leaf_s =
        (L.leaf_ns[kInitial] + L.leaf_ns[kInject] + L.leaf_ns[kRecovered]) *
        1e-9;
    double shard_max = 0;
    for (double s : L.shard_s) shard_max = std::max(shard_max, s);
    const double shard_mean =
        L.shard_s.empty() ? 0 : shard_s / static_cast<double>(L.shard_s.size());
    const double ips = ratio(a_inter, a_run);
    const double failed_ratio =
        ratio(static_cast<double>(failed), static_cast<double>(attempted));
    metrics = {
        {"core.interactions", inter / reps, "count"},
        {"core.self_s", (shard_s - leaf_s) / reps, "s"},
        {"core.kernel_ceiling_ips", k.ceiling_ips, "1/s"},
        {"core.efficiency", ratio(ips, threads * k.ceiling_ips), "ratio"},
        {"core.word_lane", k.word_lane ? 1.0 : 0.0, "flag"},
        {"pl.is_safe_calls", L.leaf_calls[kRecovered] / reps, "count"},
        {"pl.is_safe_s", pl_s / reps, "s"},
        {"pl.is_safe_share", ratio(pl_s, shard_s), "ratio"},
        {"analysis.shards", static_cast<double>(L.shard_s.size()) / reps,
         "count"},
        {"analysis.shard_s.p50", median(L.shard_s), "s"},
        {"analysis.shard_s.max", shard_max, "s"},
        {"analysis.shard_imbalance", ratio(shard_max, shard_mean), "ratio"},
        {"analysis.inject_s", L.leaf_ns[kInject] * 1e-9 / reps, "s"},
        {"analysis.inject_calls", L.leaf_calls[kInject] / reps, "count"},
        {"analysis.initial_s", L.leaf_ns[kInitial] * 1e-9 / reps, "s"},
        {"analysis.imbalance_wait_s", L.wait_ns * 1e-9 / reps, "s"},
        {"service.frames", frames / reps, "count"},
        {"service.frame_bytes", frame_bytes / reps, "bytes"},
        {"service.frame_write_s", L.write_ns * 1e-9 / reps, "s"},
        {"service.flush_calls", flushes / reps, "count"},
        {"service.checkpoint_s", (b_run - c_run) / reps, "s"},
        {"service.checkpoint_bytes", ckpt_bytes / reps, "bytes"},
        {"service.resume_s", L.resume_ns * 1e-9 / reps, "s"},
        {"service.fanout_efficiency", ratio(L.shard_ns, L.capacity_ns),
         "ratio"},
        {"trace.unaccounted_share", 1.0 - ratio(L.covered_ns, L.capacity_ns),
         "ratio"},
        {"trace.overhead", ratio(b_run, a_run), "ratio"},
        {"failed_ratio", failed_ratio, "ratio"},
    };
    std::fprintf(stderr, "%zu reps per phase; service share of traced "
                 "capacity %.3f\n",
                 a.size(),
                 ratio(L.covered_ns - L.shard_ns - L.wait_ns, L.capacity_ns));
  }

  for (const Metric& m : metrics)
    std::fprintf(stderr, "  %-28s %-14.6g %s\n", m.name.c_str(), m.value,
                 m.unit);
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_campaign: %s\nusage: perfbench_campaign "
               "--workload NAME --seed N --seconds S --trace 0|1 --tmp DIR "
               "[--spans FILE] [--fs-type NAME] [--tiny] "
               "[--corrupt-expected]\n",
               why);
  std::exit(2);
}

[[nodiscard]] Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      const std::string w = next();
      for (const Workload& cand : kWorkloads)
        if (w == cand.name) o.w = &cand;
      if (o.w == nullptr) usage(("unknown workload " + w).c_str());
    } else if (a == "--seed") {
      const std::string v = next();
      char* end = nullptr;
      errno = 0;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || v[0] == '-' || errno != 0 || *end != '\0')
        usage("--seed takes a non-negative integer");
      have_seed = true;
    } else if (a == "--seconds") {
      const std::string v = next();
      char* end = nullptr;
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0) || o.seconds > 3600)
        usage("--seconds takes a number in (0, 3600]");
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
      have_trace = true;
    } else if (a == "--tmp") {
      o.tmp = next();
    } else if (a == "--spans") {
      o.spans = next();
    } else if (a == "--fs-type") {
      o.fs_type = next();
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--corrupt-expected") {
      o.corrupt_expected = true;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.w == nullptr || !have_seed || o.seconds <= 0 || !have_trace ||
      o.tmp.empty())
    usage("--workload, --seed, --seconds, --trace and --tmp are required");
  if (!fs::is_directory(o.tmp)) usage("--tmp must be an existing directory");
  return o;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const perfbench::CheckFailed& e) {
    std::fprintf(stderr, "output check failed: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
