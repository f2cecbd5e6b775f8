/// \file qybench.cc
/// qybench: one end-to-end and per-layer benchmark of Qymera's SQL
/// simulation path (QymeraSimulator) and of its query service.
///
///   qybench --workload NAME|all --seed N --seconds S --trace 0|1 [--quick]
///
/// Workloads (README.md says why each was chosen):
///   qft_dense      seeded X-prefix + QFT-14, no memory budget
///   sparse_repeat  4 H + a seeded 24-gate sparse layer on 100 qubits, x25
///   spill_budget   the qft_dense circuit under a 2 MiB budget, spill on
///   service_mixed  Server on a UNIX socket, one closed-loop client, two
///                  sessions
///
/// Every engine runs with one worker thread, so counts repeat exactly and
/// times measure the program rather than the scheduler. Operation times are
/// also reported scaled to a reference host speed (see ProbeMs).
///
/// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
/// runs the product path untraced for half the time, then replays the same
/// inputs through each layer's public functions with spans around those
/// calls, and prints the per-layer metrics. Every output is checked against
/// a reference outside the timed region. The last stdout line is one JSON
/// object {correct, attempted, failed, metrics}; the exit code is 0 only
/// when every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuit/families.h"
#include "circuit/json_io.h"
#include "common/json.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/qymera_sim.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "sim/sparse_sim.h"
#include "sim/statevector.h"
#include "spans.h"

namespace {

using namespace qy;
using qybench::Scope;
using qybench::Tracer;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
/// Amplitude and norm tolerance of every correctness check.
constexpr double kTolerance = 1e-9;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double MaxRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Host speed normalization
// ---------------------------------------------------------------------------

/// Probe time that defines the reference host speed: a normalized time is
/// what the operation would have taken had the probe taken this long.
constexpr double kProbeRefMs = 0.7;
/// Operation time accumulated between two probes.
constexpr double kProbeEveryMs = 10;

/// Times a fixed kernel that is part of the harness, not the program. On a
/// shared host the speed of the same code drifts by up to 1.5x from second
/// to second as neighbours load the cores (one sparse_repeat run took 15 ms
/// or 24 ms depending on the moment). The kernel slows with that contention
/// much as ordinary code does: it keeps several independent dependency
/// chains and a 16 KiB table in L1, so it does not depend on what the
/// program left in the caches.
double ProbeMs() {
  static std::vector<uint32_t> table(4096, 1);
  auto t0 = Clock::now();
  uint64_t a = 1, b = 2, c = 3, d = 4;
  uint32_t acc = 0;
  for (int k = 0; k < 200000; ++k) {
    a = a * 6364136223846793005ULL + 1;
    b = b * 2862933555777941757ULL + 3;
    c ^= c << 13;
    c ^= c >> 7;
    c ^= c << 17;
    d += a ^ (b >> 3);
    acc += table[(a >> 40) & 0xfff];
    table[(b >> 40) & 0xfff] += static_cast<uint32_t>(d);
    acc ^= table[(c >> 40) & 0xfff];
    if ((acc & 7) == 3) d ^= acc;
  }
  table[0] += acc + static_cast<uint32_t>(a ^ b ^ c ^ d);
  return Seconds(t0, Clock::now()) * 1e3;
}

/// Operation wall times scaled to the reference host speed. A probe runs
/// once kProbeEveryMs of operation time has accumulated; the operations
/// since the previous probe are scaled by kProbeRefMs over the mean of the
/// two probes that bracket them. Probes run between operations, never
/// inside one.
class NormalizedTimes {
 public:
  void Add(double wall_ms) {
    wall_.push_back(wall_ms);
    pending_ms_ += wall_ms;
    if (pending_ms_ >= kProbeEveryMs) Flush();
  }

  /// Probe now and scale every operation not yet scaled.
  void Flush() {
    if (norm_.size() == wall_.size()) return;
    double probe = ProbeMs();
    double speed = probes_.empty() ? probe : (probes_.back() + probe) / 2;
    probes_.push_back(probe);
    for (size_t i = norm_.size(); i < wall_.size(); ++i) {
      norm_.push_back(wall_[i] * kProbeRefMs / speed);
    }
    pending_ms_ = 0;
  }

  size_t size() const { return wall_.size(); }
  const std::vector<double>& wall() const { return wall_; }
  /// Call Flush() first.
  const std::vector<double>& norm() const { return norm_; }
  const std::vector<double>& probes() const { return probes_; }

 private:
  std::vector<double> wall_;
  std::vector<double> norm_;
  std::vector<double> probes_;
  double pending_ms_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics and the result line
// ---------------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with --trace 0, on every workload.
constexpr MetricDef kEndToEnd[] = {
    {"norm_latency_ms_p50", "ms"},
    {"peak_mib", "MiB"},
    {"rss_mib", "MiB"},
    {"setup_s", "s"},
};

/// Printed with --trace 1, on every workload; a layer the workload does not
/// drive reports 0.
constexpr MetricDef kPerLayer[] = {
    {"core.translate_s", "s"},
    {"core.sql_bytes", "bytes"},
    {"core.load_s", "s"},
    {"core.readback_s", "s"},
    {"core.readback_rows", "count"},
    {"sql.step_s", "s"},
    {"sql.step_ms_p50", "ms"},
    {"sql.step_ms_p99", "ms"},
    {"sql.drop_s", "s"},
    {"sql.plan_cache.hits", "count"},
    {"sql.plan_cache.misses", "count"},
    {"sql.plan_cache.evictions", "count"},
    {"sql.plan_cache.hit_ratio", "ratio"},
    {"sql.plan_miss_s", "s"},
    {"sql.op.Scan.s", "s"},
    {"sql.op.Scan.rows", "count"},
    {"sql.op.HashJoin.s", "s"},
    {"sql.op.HashJoin.rows", "count"},
    {"sql.op.HashJoinBuild.rows", "count"},
    {"sql.op.HashJoinProbe.rows", "count"},
    {"sql.op.HashAggregate.s", "s"},
    {"sql.op.HashAggregate.rows", "count"},
    {"sql.op.Filter.s", "s"},
    {"sql.op.Filter.rows", "count"},
    {"sql.op.Project.s", "s"},
    {"sql.op.Project.rows", "count"},
    {"sql.spill.rows", "count"},
    {"sql.spill.bytes", "bytes"},
    {"sql.spill_overhead_s", "s"},
    {"sql.peak_mib", "MiB"},
    {"service.op.query.s_p50", "s"},
    {"service.op.read.s_p50", "s"},
    {"service.op.simulate.s_p50", "s"},
    {"service.submit_s_p50", "s"},
    {"service.wire_s_p50", "s"},
    {"service.codec_us", "us"},
    {"service.response_bytes_mean", "bytes"},
    {"service.admission.queued", "count"},
    {"service.admission.rejected", "count"},
    {"service.admission.timed_out", "count"},
    {"trace.overhead", "ratio"},
};

/// Operators whose engine-side profile the per-layer metrics report: the
/// seconds of the first list, the rows of both.
constexpr const char* kTimedOps[] = {"Scan", "HashJoin", "HashAggregate",
                                     "Filter", "Project"};
constexpr const char* kCountedOnlyOps[] = {"HashJoinBuild", "HashJoinProbe"};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  /// Ungated lines for humans: unscaled latency, the tail with its sample
  /// count, throughput, the probe median.
  std::vector<std::string> notes;

  void Fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "qybench: check failed: %s\n", why.c_str());
  }
};

/// Print the human lines and then the result JSON line. Returns false when
/// the outcome holds a metric name the tables above do not know.
bool PrintOutcome(const std::string& workload, bool trace, Outcome* out) {
  JsonValue metrics{JsonValue::Object{}};
  std::printf("== %s (%s)\n", workload.c_str(),
              trace ? "traced, per-layer" : "end-to-end");
  size_t known = 0;
  auto emit = [&](const MetricDef& def, double value) {
    std::printf("  %-30s %.6g %s\n", def.name, value, def.unit);
    JsonValue m{JsonValue::Object{}};
    m.Set("value", value);
    m.Set("unit", def.unit);
    metrics.Set(def.name, std::move(m));
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) {
      auto it = out->values.find(def.name);
      known += it != out->values.end();
      emit(def, it == out->values.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      auto it = out->values.find(def.name);
      if (it == out->values.end()) {
        // A failed check stops a workload before it measures anything.
        if (out->correct) {
          out->Fail(std::string("end-to-end metric not measured: ") + def.name);
        }
        continue;
      }
      ++known;
      emit(def, it->second);
    }
  }
  bool names_ok = known == out->values.size();
  if (!names_ok) out->Fail("outcome holds a metric outside the metric tables");
  for (const std::string& note : out->notes) {
    std::printf("  %s\n", note.c_str());
  }
  JsonValue result{JsonValue::Object{}};
  result.Set("correct", out->correct);
  result.Set("attempted", static_cast<int64_t>(out->attempted));
  result.Set("failed", static_cast<int64_t>(out->failed));
  result.Set("metrics", std::move(metrics));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return names_ok;
}

/// "latency_ms_p90 = 1.2 ms (ungated, n=40)": the highest of p99.9/p99/p90/
/// p75 that has at least ten samples beyond it.
std::string TailNote(const char* prefix, const std::vector<double>& ms) {
  const std::pair<double, const char*> tails[] = {
      {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.75, "p75"}};
  for (const auto& [q, label] : tails) {
    if (static_cast<double>(ms.size()) * (1 - q) >= 10) {
      return StrFormat("%s_%s = %.6g ms (ungated, n=%zu)", prefix, label,
                       Quantile(ms, q), ms.size());
    }
  }
  return StrFormat("%s: too few samples for a tail (n=%zu)", prefix,
                   ms.size());
}

std::string ProbeNote(const NormalizedTimes& times) {
  return StrFormat("probe_ms_p50 = %.6g ms (host speed; reference %.2g ms)",
                   Median(times.probes()), kProbeRefMs);
}

/// Set the end-to-end metrics every workload reports. `ops` and `setups`
/// must be flushed.
void SetEndToEnd(const NormalizedTimes& ops, const NormalizedTimes& setups,
                 uint64_t peak_bytes, Outcome* out) {
  out->values["norm_latency_ms_p50"] = Median(ops.norm());
  out->values["peak_mib"] = static_cast<double>(peak_bytes) / kMiB;
  out->values["rss_mib"] = MaxRssMib();
  out->values["setup_s"] = Median(setups.norm()) * 1e-3;
  out->notes.push_back(StrFormat("wall_latency_ms_p50 = %.6g ms (ungated)",
                                 Median(ops.wall())));
  out->notes.push_back(TailNote("norm_latency_ms", ops.norm()));
  // One caller per workload, so throughput is 1 / mean latency. The mean
  // follows the host's slow spells more than the median does.
  out->notes.push_back(
      StrFormat("norm_throughput_per_s = %.6g 1/s (ungated, n=%zu)",
                static_cast<double>(ops.size()) / (Sum(ops.norm()) * 1e-3),
                ops.size()));
  out->notes.push_back(ProbeNote(ops));
}

// ---------------------------------------------------------------------------
// Arguments and the provenance stamp
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  bool quick = false;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    }
    if (key == "--quick") {
      args->quick = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) {
        *error = "missing value for " + key;
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0)) end = nullptr;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else {
      *error = "unknown flag " + key;
      return false;
    }
    if ((key == "--seed" || key == "--seconds") &&
        (end == nullptr || *end != '\0' || value.empty())) {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

/// Spin counters on `threads` threads for `span`; returns total laps.
double SpinLaps(unsigned threads, std::chrono::milliseconds span) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> laps(threads, 0);
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < threads; ++t) {
    spinners.emplace_back([&stop, &laps, t] {
      uint64_t x = t + 1;
      uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        ++n;
      }
      laps[t] = n + (x == 0 ? 1 : 0);  // keeps x live
    });
  }
  std::this_thread::sleep_for(span);
  stop.store(true);
  for (std::thread& t : spinners) t.join();
  double total = 0;
  for (uint64_t n : laps) total += static_cast<double>(n);
  return total;
}

const char* CompilerId() {
#if defined(__clang__)
  return "Clang " __clang_version__;
#elif defined(__GNUC__)
  return "GNU " __VERSION__;
#else
  return "unknown";
#endif
}

/// Host facts the result depends on: compiler, nproc, and how many CPUs a
/// 1-vs-N spin test actually gets.
void PrintStamp(const Args& args) {
  unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  double one = SpinLaps(1, std::chrono::milliseconds(100));
  double all = SpinLaps(nproc, std::chrono::milliseconds(100));
  JsonValue stamp{JsonValue::Object{}};
  stamp.Set("workload", args.workload);
  stamp.Set("seed", static_cast<int64_t>(args.seed));
  stamp.Set("seconds", args.seconds);
  stamp.Set("trace", args.trace);
  stamp.Set("quick", args.quick);
  stamp.Set("compiler", CompilerId());
  stamp.Set("nproc", static_cast<int64_t>(nproc));
  stamp.Set("effective_cpus", one > 0 ? all / one : 0.0);
  std::printf("stamp %s\n", stamp.Dump().c_str());
}

// ---------------------------------------------------------------------------
// Simulation workloads
// ---------------------------------------------------------------------------

struct SimSpec {
  qc::QuantumCircuit circuit{1};
  core::QymeraOptions options;
  bool sparse_reference = false;  ///< sparse simulator, else statevector
};

/// 0..n-1 in a seeded order (Fisher-Yates).
std::vector<int> Permutation(int n, Rng* rng) {
  std::vector<int> v(n);
  for (int i = 0; i < n; ++i) v[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(v[i], v[static_cast<size_t>(rng->UniformInt(0, i))]);
  }
  return v;
}

/// X on a seeded half of the qubits (a random basis input), then QFT. The
/// X count is fixed so every seed does the same amount of work.
qc::QuantumCircuit XPrefixQft(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int> order = Permutation(n, &rng);
  std::sort(order.begin(), order.begin() + n / 2);
  qc::QuantumCircuit c(n, "xqft" + std::to_string(n));
  for (int k = 0; k < n / 2; ++k) c.X(order[k]);
  c.Compose(qc::Qft(n));
  return c;
}

/// 4 H gates (16 nonzeros), then one seeded 24-gate layer on 100 qubits
/// repeated: three each of X, Z, S, T, CX, CZ, SWAP and CCX in a seeded
/// order on seeded qubits. Every gate permutes or phases basis states, so
/// the state keeps 16 nonzeros; the fixed gate mix keeps the work the same
/// for every seed; the repeats emit byte-identical SQL per gate shape.
qc::QuantumCircuit SparseRepeat(int repeats, uint64_t seed) {
  constexpr int n = 100;
  Rng rng(seed);
  std::vector<int> kinds = Permutation(24, &rng);
  qc::QuantumCircuit layer(n);
  for (int kind : kinds) {
    std::vector<int> q = Permutation(n, &rng);
    switch (kind % 8) {
      case 0: layer.X(q[0]); break;
      case 1: layer.Z(q[0]); break;
      case 2: layer.S(q[0]); break;
      case 3: layer.T(q[0]); break;
      case 4: layer.CX(q[0], q[1]); break;
      case 5: layer.CZ(q[0], q[1]); break;
      case 6: layer.Swap(q[0], q[1]); break;
      default: layer.CCX(q[0], q[1], q[2]); break;
    }
  }
  qc::QuantumCircuit c(n, "sparse_repeat");
  for (int q = 0; q < 4; ++q) c.H(q);
  for (int r = 0; r < repeats; ++r) c.Compose(layer);
  return c;
}

bool IsSimWorkload(const std::string& name) {
  return name == "qft_dense" || name == "sparse_repeat" ||
         name == "spill_budget";
}

SimSpec MakeSimSpec(const std::string& name, uint64_t seed, bool quick) {
  SimSpec spec;
  spec.options.num_threads = 1;
  if (name == "qft_dense") {
    spec.circuit = XPrefixQft(quick ? 8 : 14, seed);
  } else if (name == "sparse_repeat") {
    spec.circuit = SparseRepeat(quick ? 20 : 25, seed);
    spec.sparse_reference = true;
  } else {  // spill_budget: each budget is well under the unbudgeted peak
    spec.circuit = XPrefixQft(quick ? 10 : 14, seed);
    spec.options.base.memory_budget_bytes = quick ? (256u << 10) : (2u << 20);
    spec.options.enable_spill = true;
  }
  return spec;
}

Result<sim::SparseState> Reference(const SimSpec& spec) {
  if (spec.sparse_reference) {
    return sim::SparseSimulator().Run(spec.circuit);
  }
  return sim::StatevectorSimulator().Run(spec.circuit);
}

/// Empty when `got` matches the reference within kTolerance and is
/// normalized; otherwise why not.
std::string CheckState(const sim::SparseState& got,
                       const sim::SparseState& ref) {
  double diff = sim::SparseState::MaxAmplitudeDiff(got, ref);
  double norm = got.NormSquared();
  if (!(diff <= kTolerance)) {
    return StrFormat("max |d amp| = %.3g against the reference", diff);
  }
  if (!(std::abs(norm - 1) <= kTolerance)) {
    return StrFormat("|norm - 1| = %.3g", std::abs(norm - 1));
  }
  return "";
}

bool SameState(const sim::SparseState& a, const sim::SparseState& b) {
  return a.num_qubits() == b.num_qubits() && a.amplitudes() == b.amplitudes();
}

/// Exact counts of one replay; they must repeat from replay to replay.
struct Counts {
  sql::PlanCacheStats plan;
  std::map<std::string, uint64_t> op_rows;
  uint64_t spill_rows = 0;
  uint64_t spill_bytes = 0;
  uint64_t peak_bytes = 0;
  uint64_t sql_bytes = 0;
  uint64_t readback_rows = 0;
};

/// Empty when equal; else the first differing field.
std::string DiffCounts(const Counts& a, const Counts& b) {
  auto field = [](const char* name, uint64_t x, uint64_t y) {
    return x == y ? std::string()
                  : StrFormat("%s %llu != %llu", name,
                              static_cast<unsigned long long>(x),
                              static_cast<unsigned long long>(y));
  };
  std::string d;
  for (const std::string& s :
       {field("plan_cache.hits", a.plan.hits, b.plan.hits),
        field("plan_cache.misses", a.plan.misses, b.plan.misses),
        field("plan_cache.evictions", a.plan.evictions, b.plan.evictions),
        field("spill.rows", a.spill_rows, b.spill_rows),
        field("spill.bytes", a.spill_bytes, b.spill_bytes),
        field("peak_bytes", a.peak_bytes, b.peak_bytes),
        field("sql_bytes", a.sql_bytes, b.sql_bytes),
        field("readback_rows", a.readback_rows, b.readback_rows)}) {
    if (d.empty()) d = s;
  }
  if (d.empty() && a.op_rows != b.op_rows) d = "operator row counts differ";
  return d;
}

/// Add the engine profile of `db` (minus `base`) to `rows` / `seconds`.
void AddProfile(const sql::Database& db,
                const std::vector<sql::OperatorProfile>& base,
                std::map<std::string, uint64_t>* rows,
                std::map<std::string, double>* seconds) {
  for (const sql::OperatorProfile& op : db.profile().Snapshot()) {
    uint64_t r = op.rows_out;
    double s = op.seconds;
    for (const sql::OperatorProfile& b : base) {
      if (b.name == op.name) {
        r -= b.rows_out;
        s -= b.seconds;
      }
    }
    (*rows)[op.name] += r;
    (*seconds)[op.name] += s;
  }
}

/// Set the sql.* metrics that come from one replay's exact counts, plus the
/// engine's per-operator seconds.
void SetSqlCounts(const Counts& c, const std::map<std::string, double>& op_s,
                  Outcome* out) {
  auto& v = out->values;
  v["sql.plan_cache.hits"] = static_cast<double>(c.plan.hits);
  v["sql.plan_cache.misses"] = static_cast<double>(c.plan.misses);
  v["sql.plan_cache.evictions"] = static_cast<double>(c.plan.evictions);
  uint64_t lookups = c.plan.hits + c.plan.misses;
  v["sql.plan_cache.hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(c.plan.hits) /
                         static_cast<double>(lookups);
  auto rows = [&](const std::string& op) {
    auto it = c.op_rows.find(op);
    v["sql.op." + op + ".rows"] =
        it == c.op_rows.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const char* op : kTimedOps) {
    auto it = op_s.find(op);
    v[std::string("sql.op.") + op + ".s"] = it == op_s.end() ? 0.0 : it->second;
    rows(op);
  }
  for (const char* op : kCountedOnlyOps) rows(op);
  v["sql.spill.rows"] = static_cast<double>(c.spill_rows);
  v["sql.spill.bytes"] = static_cast<double>(c.spill_bytes);
  v["sql.peak_mib"] = static_cast<double>(c.peak_bytes) / kMiB;
}

struct ReplayOutput {
  core::Translation translation;
  sim::SparseState state;
  Counts counts;
  std::map<std::string, double> op_seconds;
  std::vector<bool> missed;  ///< per statement: the steps, then the norm query
};

/// Replay QymeraSimulator::Run's materialized path through the layers'
/// public functions, one span per call: translate, load the gate and initial
/// state tables, one CREATE TABLE AS plus one DROP per gate, then the norm
/// query and the state readback. With `time_misses`, each statement that
/// missed the plan cache in an earlier replay is first parsed and bound on
/// its own under a "sql.plan_miss" span.
Result<ReplayOutput> Replay(const SimSpec& spec, Tracer* tracer, uint32_t run,
                            const std::vector<bool>* time_misses) {
  const core::QymeraOptions& q = spec.options;
  if (q.enable_fusion || q.mode != core::QymeraOptions::Mode::kMaterializedSteps) {
    return Status::Unsupported("the replay models materialized, unfused runs");
  }
  ReplayOutput out;
  Scope root(tracer, "replay", run);
  const int n = spec.circuit.num_qubits();
  core::TranslateOptions topts;
  topts.use_hugeint = q.force_hugeint || n > 62;
  topts.prune_epsilon = q.base.prune_epsilon;
  topts.order_final = q.final_order_by;
  topts.ping_pong_states = true;
  {
    Scope s(tracer, "core.translate", run, root.id());
    QY_ASSIGN_OR_RETURN(out.translation,
                        core::TranslateCircuit(spec.circuit, topts));
  }

  sql::DatabaseOptions dopts;
  dopts.memory_budget_bytes = q.base.memory_budget_bytes;
  dopts.enable_spill = q.enable_spill;
  dopts.chunk_size = q.chunk_size;
  dopts.num_threads = q.num_threads;
  sql::Database db(dopts);
  {
    Scope s(tracer, "core.load", run, root.id());
    for (const core::EncodedGate& gate : out.translation.gate_tables) {
      QY_RETURN_IF_ERROR(core::MaterializeGateTable(&db, gate));
    }
    QY_RETURN_IF_ERROR(core::MaterializeStateTable(
        &db, "T0", sim::SparseState::ZeroState(n), topts.use_hugeint));
  }

  auto execute = [&](const std::string& text,
                     const char* span) -> Result<sql::QueryResult> {
    size_t index = out.missed.size();
    if (time_misses != nullptr && index < time_misses->size() &&
        (*time_misses)[index]) {
      Scope s(tracer, "sql.plan_miss", run, root.id());
      QY_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(text));
      const sql::SelectStmt* select =
          stmt.kind == sql::Statement::Kind::kCreateTable
              ? stmt.create_table->as_select.get()
              : stmt.select.get();
      QY_ASSIGN_OR_RETURN(sql::PlanNodePtr plan,
                          sql::BindSelect(*select, db.catalog(), {}));
    }
    uint64_t misses = db.plan_cache_stats().misses;
    Scope s(tracer, span, run, root.id());
    auto result = db.Execute(text);
    out.missed.push_back(db.plan_cache_stats().misses != misses);
    return result;
  };

  std::string current = "T0";
  for (const core::GateQuery& step : out.translation.steps) {
    std::string text =
        "CREATE TABLE " + step.output_table + " AS " + step.select_sql;
    out.counts.sql_bytes += text.size();
    QY_ASSIGN_OR_RETURN(sql::QueryResult ignored, execute(text, "sql.step"));
    (void)ignored;
    {
      Scope s(tracer, "sql.drop", run, root.id());
      QY_RETURN_IF_ERROR(db.ExecuteScript("DROP TABLE " + current));
    }
    current = step.output_table;
  }
  {
    Scope s(tracer, "core.readback", run, root.id());
    QY_ASSIGN_OR_RETURN(
        sql::QueryResult norm,
        execute("SELECT COUNT(*) AS rows, SUM(r * r + i * i) AS norm FROM " +
                    current,
                "sql.norm"));
    (void)norm;
    // Run() reads the plan-cache counters here, before the readback.
    out.counts.plan = db.plan_cache_stats();
    QY_ASSIGN_OR_RETURN(out.state, core::ReadStateTable(&db, current, n,
                                                        q.base.prune_epsilon));
  }
  out.counts.readback_rows = out.state.NumNonZero();
  out.counts.spill_rows = db.total_rows_spilled();
  out.counts.spill_bytes = db.temp_files().total_spilled_bytes();
  out.counts.peak_bytes = db.tracker().peak();
  AddProfile(db, {}, &out.counts.op_rows, &out.op_seconds);
  return out;
}

/// Empty when the replay's translation is byte-identical to the product's.
std::string DiffTranslation(const core::Translation& replay,
                            const core::Translation& product) {
  if (replay.steps.size() != product.steps.size() ||
      replay.gate_tables.size() != product.gate_tables.size()) {
    return "step or gate-table count differs from Translate()";
  }
  for (size_t k = 0; k < replay.steps.size(); ++k) {
    const core::GateQuery& a = replay.steps[k];
    const core::GateQuery& b = product.steps[k];
    if (a.output_table != b.output_table || a.input_table != b.input_table ||
        a.select_sql != b.select_sql) {
      return StrFormat("step %zu SQL differs from Translate()", k);
    }
  }
  for (size_t g = 0; g < replay.gate_tables.size(); ++g) {
    if (replay.gate_tables[g].table_name != product.gate_tables[g].table_name) {
      return StrFormat("gate table %zu differs from Translate()", g);
    }
  }
  return "";
}

void RunSimWorkload(const std::string& name, const Args& args, Outcome* out) {
  const int setups = args.quick ? 2 : 5;
  auto ref_or = Reference(MakeSimSpec(name, args.seed, args.quick));
  if (!ref_or.ok()) {
    out->Fail("reference simulation: " + ref_or.status().ToString());
    return;
  }
  const sim::SparseState reference = std::move(ref_or).value();

  // Set-up: input generation, the simulator, one warm-up run. Repeated so
  // setup_s is a median; the last set-up is the one measured.
  SimSpec spec;
  std::unique_ptr<core::QymeraSimulator> sim;
  NormalizedTimes setup_ms;
  for (int i = 0; i < setups; ++i) {
    auto t0 = Clock::now();
    spec = MakeSimSpec(name, args.seed, args.quick);
    sim = std::make_unique<core::QymeraSimulator>(spec.options);
    auto warm = sim->Run(spec.circuit);
    setup_ms.Add(Seconds(t0, Clock::now()) * 1e3);
    setup_ms.Flush();
    if (!warm.ok()) {
      out->Fail("warm-up run: " + warm.status().ToString());
      return;
    }
    std::string why = CheckState(*warm, reference);
    if (!why.empty()) {
      out->Fail("warm-up run: " + why);
      return;
    }
  }

  // Untraced runs of the product path.
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  NormalizedTimes run_ms;
  uint64_t peak = 0;
  sim::SparseState last_state;
  auto deadline = Clock::now() + ToDuration(window);
  while (run_ms.size() < 3 || Clock::now() < deadline) {
    auto t0 = Clock::now();
    auto state = sim->Run(spec.circuit);
    double ms = Seconds(t0, Clock::now()) * 1e3;
    ++out->attempted;
    if (!state.ok()) {
      ++out->failed;
      out->Fail("run: " + state.status().ToString());
      return;
    }
    peak = std::max(peak, sim->metrics().peak_bytes);
    std::string why = CheckState(*state, reference);
    if (!why.empty()) {
      ++out->failed;
      out->Fail("run: " + why);
    }
    last_state = std::move(state).value();
    run_ms.Add(ms);  // may probe; after the check, outside the timed region
  }
  run_ms.Flush();

  if (!args.trace) {
    SetEndToEnd(run_ms, setup_ms, peak, out);
    return;
  }

  // Traced replays. The first asserts that the replay is the product path:
  // same SQL, same plan-cache traffic, bit-identical final state. Each later
  // replay must repeat the first one's exact counts.
  Tracer tracer(true);
  NormalizedTimes replay_ms;
  auto t0 = Clock::now();
  auto first = Replay(spec, &tracer, 1, nullptr);
  replay_ms.Add(Seconds(t0, Clock::now()) * 1e3);
  if (!first.ok()) {
    out->Fail("replay: " + first.status().ToString());
    return;
  }
  auto product = sim->Translate(spec.circuit);
  if (!product.ok()) {
    out->Fail("Translate(): " + product.status().ToString());
    return;
  }
  std::string why = DiffTranslation(first->translation, *product);
  if (!why.empty()) out->Fail("replay drift: " + why);
  const core::RunSummary& summary = sim->last_summary();
  if (first->counts.plan.hits != summary.plan_cache_hits ||
      first->counts.plan.misses != summary.plan_cache_misses) {
    out->Fail(StrFormat(
        "replay drift: plan cache %llu/%llu hits/misses, Run() %llu/%llu",
        static_cast<unsigned long long>(first->counts.plan.hits),
        static_cast<unsigned long long>(first->counts.plan.misses),
        static_cast<unsigned long long>(summary.plan_cache_hits),
        static_cast<unsigned long long>(summary.plan_cache_misses)));
  }
  if (!SameState(first->state, last_state)) {
    out->Fail("replay drift: final state differs from Run()'s");
  }
  why = CheckState(first->state, reference);
  if (!why.empty()) out->Fail("replay: " + why);
  ++out->attempted;

  const uint32_t max_replays = 50;  // bounds the trace file (~7 MB)
  std::vector<std::map<std::string, double>> op_seconds = {first->op_seconds};
  uint32_t replays = 1;
  deadline = Clock::now() + ToDuration(args.seconds - window);
  while (replays < max_replays && (replays < 2 || Clock::now() < deadline)) {
    ++replays;
    ++out->attempted;
    t0 = Clock::now();
    auto again = Replay(spec, &tracer, replays, nullptr);
    replay_ms.Add(Seconds(t0, Clock::now()) * 1e3);
    if (!again.ok()) {
      ++out->failed;
      out->Fail("replay: " + again.status().ToString());
      return;
    }
    why = DiffCounts(again->counts, first->counts);
    if (!why.empty()) {
      ++out->failed;
      out->Fail("exact counts did not repeat: " + why);
    }
    op_seconds.push_back(again->op_seconds);
  }
  replay_ms.Flush();

  // What the plan-cache misses cost: parse + bind of each missed text, in a
  // pass of its own so the replays' timings stay untouched.
  const uint32_t miss_run = replays + 1;
  auto miss_pass = Replay(spec, &tracer, miss_run, &first->missed);
  if (!miss_pass.ok()) {
    out->Fail("plan-miss pass: " + miss_pass.status().ToString());
    return;
  }

  // Spill overhead: the same circuit's step time without a budget.
  const bool budgeted =
      spec.options.base.memory_budget_bytes != MemoryTracker::kUnlimited;
  const uint32_t free_lo = miss_run + 1;
  const uint32_t free_hi = budgeted ? free_lo + 2 : free_lo - 1;
  SimSpec unbudgeted = spec;
  unbudgeted.options.base.memory_budget_bytes = MemoryTracker::kUnlimited;
  for (uint32_t r = free_lo; r <= free_hi; ++r) {
    auto free_run = Replay(unbudgeted, &tracer, r, nullptr);
    if (!free_run.ok()) {
      out->Fail("unbudgeted pass: " + free_run.status().ToString());
      return;
    }
  }

  const Counts& c = first->counts;
  auto per_run = [&](const char* span) {
    return Median(tracer.SumPerRun(span, 1, replays));
  };
  auto& v = out->values;
  v["core.translate_s"] = per_run("core.translate");
  v["core.sql_bytes"] = static_cast<double>(c.sql_bytes);
  v["core.load_s"] = per_run("core.load");
  v["core.readback_s"] = per_run("core.readback");
  v["core.readback_rows"] = static_cast<double>(c.readback_rows);
  v["sql.step_s"] = per_run("sql.step");
  std::vector<double> steps = tracer.Durations("sql.step", 1, replays);
  v["sql.step_ms_p50"] = Quantile(steps, 0.5) * 1e3;
  v["sql.step_ms_p99"] = Quantile(steps, 0.99) * 1e3;
  v["sql.drop_s"] = per_run("sql.drop");
  v["sql.plan_miss_s"] =
      Sum(tracer.Durations("sql.plan_miss", miss_run, miss_run));
  std::map<std::string, double> op_s;
  for (const char* op : kTimedOps) {
    std::vector<double> secs;
    for (const auto& m : op_seconds) {
      auto it = m.find(op);
      secs.push_back(it == m.end() ? 0.0 : it->second);
    }
    op_s[op] = Median(secs);
  }
  SetSqlCounts(c, op_s, out);
  v["sql.spill_overhead_s"] =
      budgeted ? v["sql.step_s"] -
                     Median(tracer.SumPerRun("sql.step", free_lo, free_hi))
               : 0.0;
  v["trace.overhead"] = Median(replay_ms.norm()) / Median(run_ms.norm());
  out->notes.push_back(ProbeNote(replay_ms));

  std::string path = "qybench-trace-" + name + ".json";
  if (!tracer.WriteJson(path)) out->Fail("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Service workload
// ---------------------------------------------------------------------------

constexpr int kServiceQubits = 12;  ///< 4,096-row state table per session
constexpr int kSessions = 2;
constexpr int64_t kReadRows = 16;
constexpr int kSimulateQubits = 10;

enum class OpKind { kQuery, kRead, kSimulate };

const char* CallSpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kQuery: return "service.call.query";
    case OpKind::kRead: return "service.call.read";
    case OpKind::kSimulate: return "service.call.simulate";
  }
  return "";
}

/// The per-session data: a seeded, normalized 12-qubit state and the
/// statements that load it (plus the H gate table) into a session.
struct Preload {
  std::vector<std::pair<double, double>> amps;  ///< index = basis state s
  std::vector<std::string> statements;
};

Preload MakePreload(uint64_t seed) {
  Preload p;
  Rng rng(seed ^ 0x5157u);
  double norm = 0;
  for (int64_t s = 0; s < (int64_t{1} << kServiceQubits); ++s) {
    double r = rng.UniformDouble() - 0.5;
    double i = rng.UniformDouble() - 0.5;
    p.amps.emplace_back(r, i);
    norm += r * r + i * i;
  }
  double scale = 1.0 / std::sqrt(norm);
  for (auto& [r, i] : p.amps) {
    r *= scale;
    i *= scale;
  }
  p.statements.push_back("CREATE TABLE st (s BIGINT, r DOUBLE, i DOUBLE)");
  const size_t batch = 512;
  for (size_t lo = 0; lo < p.amps.size(); lo += batch) {
    std::string sql = "INSERT INTO st VALUES ";
    for (size_t s = lo; s < std::min(p.amps.size(), lo + batch); ++s) {
      if (s != lo) sql += ", ";
      sql += StrFormat("(%zu, %s, %s)", s, DoubleToSql(p.amps[s].first).c_str(),
                       DoubleToSql(p.amps[s].second).c_str());
    }
    p.statements.push_back(std::move(sql));
  }
  p.statements.push_back(
      "CREATE TABLE g_h (in_s BIGINT, out_s BIGINT, r DOUBLE, i DOUBLE)");
  auto h = core::EncodeGate(qc::Gate{qc::GateType::kH, {0}, {}, {}, ""});
  std::string sql = "INSERT INTO g_h VALUES ";
  for (size_t k = 0; k < h->rows.size(); ++k) {
    const core::GateRow& row = h->rows[k];
    if (k != 0) sql += ", ";
    sql += StrFormat("(%lld, %lld, %s, %s)", static_cast<long long>(row.in_s),
                     static_cast<long long>(row.out_s), DoubleToSql(row.r).c_str(),
                     DoubleToSql(row.i).c_str());
  }
  p.statements.push_back(std::move(sql));
  return p;
}

/// H on qubit `q` of the session's state table, in the translator's per-gate
/// shape, returning the resulting row count and norm.
std::string GateApplySql(int q) {
  std::string scatter = core::ScatterExpr("st", "g_h", {q}, false);
  return "SELECT COUNT(*) AS n, SUM(t.r * t.r + t.i * t.i) AS norm FROM "
         "(SELECT " + scatter +
         " AS s, SUM((st.r * g_h.r) - (st.i * g_h.i)) AS r, "
         "SUM((st.r * g_h.i) + (st.i * g_h.r)) AS i FROM st JOIN g_h ON "
         "g_h.in_s = " + core::GatherExpr("st", {q}) + " GROUP BY " + scatter +
         ") AS t";
}

std::string ReadSql(int64_t lo) {
  return "SELECT s, r, i FROM st WHERE s >= " + std::to_string(lo) +
         " ORDER BY s LIMIT " + std::to_string(kReadRows);
}

struct Pending {
  OpKind kind = OpKind::kQuery;
  int64_t param = 0;  ///< qubit (query) or first index (read)
  service::Request request;
};

Pending MakePending(OpKind kind, int64_t param, const std::string& session,
                    const std::string& qft_json) {
  Pending p;
  p.kind = kind;
  p.param = param;
  p.request.session = session;
  switch (kind) {
    case OpKind::kQuery:
      p.request.op = service::Request::Op::kQuery;
      p.request.sql = GateApplySql(static_cast<int>(param));
      break;
    case OpKind::kRead:
      p.request.op = service::Request::Op::kQuery;
      p.request.sql = ReadSql(param);
      break;
    case OpKind::kSimulate:
      p.request.op = service::Request::Op::kSimulate;
      p.request.circuit = qft_json;
      break;
  }
  return p;
}

/// The seeded request sequence: requests alternate between the sessions;
/// 60% are gate-apply queries, 30% ordered reads, 10% simulations.
class RequestStream {
 public:
  RequestStream(uint64_t seed, std::vector<std::string> sessions,
                const std::string* qft)
      : rng_(seed), sessions_(std::move(sessions)), qft_(qft) {}

  Pending Next() {
    const std::string& session = sessions_[next_++ % sessions_.size()];
    double u = rng_.UniformDouble();
    if (u < 0.6) {
      return MakePending(OpKind::kQuery, rng_.UniformInt(0, kServiceQubits - 1),
                         session, *qft_);
    }
    if (u < 0.9) {
      int64_t hi = (int64_t{1} << kServiceQubits) - kReadRows;
      return MakePending(OpKind::kRead, rng_.UniformInt(0, hi), session, *qft_);
    }
    return MakePending(OpKind::kSimulate, 0, session, *qft_);
  }

 private:
  Rng rng_;
  std::vector<std::string> sessions_;
  const std::string* qft_;
  size_t next_ = 0;
};

std::vector<std::string> SessionNames(const std::string& prefix) {
  std::vector<std::string> names;
  for (int s = 0; s < kSessions; ++s) {
    names.push_back(prefix + std::to_string(s));
  }
  return names;
}

/// Empty when `response` is the right answer to `p`; otherwise why not.
std::string CheckResponse(const Pending& p, const service::Response& response,
                          const Preload& preload) {
  if (!response.ok()) return response.status.ToString();
  switch (p.kind) {
    case OpKind::kQuery: {
      if (response.rows.size() != 1 || response.rows[0].size() != 2) {
        return "gate-apply: expected one (n, norm) row";
      }
      double norm = std::strtod(response.rows[0][1].c_str(), nullptr);
      if (response.rows[0][0] != std::to_string(preload.amps.size()) ||
          !(std::abs(norm - 1) <= kTolerance)) {
        return "gate-apply: n=" + response.rows[0][0] +
               " norm=" + response.rows[0][1];
      }
      return "";
    }
    case OpKind::kRead: {
      if (response.rows.size() != static_cast<size_t>(kReadRows)) {
        return "read: wrong row count";
      }
      for (int64_t k = 0; k < kReadRows; ++k) {
        const std::vector<std::string>& row = response.rows[k];
        const auto& amp = preload.amps[p.param + k];
        if (row.size() != 3 || row[0] != std::to_string(p.param + k) ||
            std::strtod(row[1].c_str(), nullptr) != amp.first ||
            std::strtod(row[2].c_str(), nullptr) != amp.second) {
          return "read: wrong row " + std::to_string(k);
        }
      }
      return "";
    }
    case OpKind::kSimulate: {
      const JsonValue* rows = response.stats.Find("final_rows");
      const JsonValue* norm = response.stats.Find("norm_squared");
      if (rows == nullptr || norm == nullptr || !rows->is_number() ||
          !norm->is_number() ||
          rows->AsInt() != (int64_t{1} << kSimulateQubits) ||
          !(std::abs(norm->AsDouble() - 1) <= kTolerance)) {
        return "simulate: expected 1024 final rows with norm 1";
      }
      return "";
    }
  }
  return "unknown op";
}

/// Open `session` and load the preload into it through `call`.
template <typename Call>
Status LoadSession(const std::string& session, const Preload& preload,
                   Call&& call) {
  service::Request open;
  open.op = service::Request::Op::kOpenSession;
  open.session = session;
  QY_ASSIGN_OR_RETURN(service::Response opened, call(open));
  QY_RETURN_IF_ERROR(opened.status);
  for (const std::string& sql : preload.statements) {
    service::Request load;
    load.op = service::Request::Op::kQuery;
    load.session = session;
    load.sql = sql;
    QY_ASSIGN_OR_RETURN(service::Response loaded, call(load));
    QY_RETURN_IF_ERROR(loaded.status);
  }
  return Status::OK();
}

/// A running Service behind a Server on a UNIX socket, and one connected
/// client whose sessions are loaded and warmed up.
struct Rig {
  std::unique_ptr<service::Service> svc;
  std::unique_ptr<service::Server> server;
  service::Client client;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() { Stop(); }

  Status Start(const std::string& socket, const Preload& preload,
               const std::string& qft_json) {
    service::ServiceOptions options;
    options.num_threads = 1;
    options.session_defaults.num_threads = 1;
    svc = std::make_unique<service::Service>(options);
    service::ServerOptions sopts;
    sopts.unix_path = socket;
    server = std::make_unique<service::Server>(svc.get(), sopts);
    QY_RETURN_IF_ERROR(server->Start());
    QY_ASSIGN_OR_RETURN(client, service::Client::ConnectUnix(socket));
    auto call = [this](const service::Request& r) { return client.Call(r); };
    for (const std::string& session : SessionNames("c")) {
      QY_RETURN_IF_ERROR(LoadSession(session, preload, call));
      // Warm-up: every gate-apply text once, one read, one simulate.
      std::vector<Pending> warm;
      for (int q = 0; q < kServiceQubits; ++q) {
        warm.push_back(MakePending(OpKind::kQuery, q, session, qft_json));
      }
      warm.push_back(MakePending(OpKind::kRead, 0, session, qft_json));
      warm.push_back(MakePending(OpKind::kSimulate, 0, session, qft_json));
      for (const Pending& p : warm) {
        QY_ASSIGN_OR_RETURN(service::Response response, client.Call(p.request));
        std::string why = CheckResponse(p, response, preload);
        if (!why.empty()) return Status::Internal("warm-up: " + why);
      }
    }
    return Status::OK();
  }

  /// Disconnect, drain the service, then stop serving (service.h's order).
  void Stop() {
    client.Close();
    if (svc != nullptr) svc->Shutdown(std::chrono::milliseconds(0));
    if (server != nullptr) server->Stop();
    server.reset();
    svc.reset();
  }
};

struct LoopResult {
  NormalizedTimes ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

/// Closed loop: the client sends its next request only after the previous
/// reply arrived, until `seconds` have passed.
LoopResult ClosedLoop(Rig* rig, RequestStream* stream, const Preload& preload,
                      double seconds, Tracer* tracer) {
  LoopResult out;
  auto deadline = Clock::now() + ToDuration(seconds);
  while (Clock::now() < deadline) {
    Pending p = stream->Next();
    ++out.attempted;
    auto t0 = Clock::now();
    Result<service::Response> response = Status::Internal("not sent");
    {
      Scope s(tracer, CallSpanName(p.kind),
              static_cast<uint32_t>(out.attempted));
      response = rig->client.Call(p.request);
    }
    double ms = Seconds(t0, Clock::now()) * 1e3;
    std::string why = response.ok() ? CheckResponse(p, *response, preload)
                                    : response.status().ToString();
    if (!why.empty()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = why;
      if (!response.ok()) break;  // the connection is poisoned
      continue;
    }
    out.ms.Add(ms);
  }
  out.ms.Flush();
  return out;
}

/// In-process replay of the first `count` requests of the seeded sequence
/// through Service::Submit, on freshly loaded sessions, so its counts do not
/// depend on how long the socket window ran.
struct SubmitReplay {
  std::vector<double> submit_s;
  std::vector<service::Request> requests;
  std::vector<service::Response> responses;
  Counts counts;
  std::map<std::string, double> op_seconds;
  std::vector<std::pair<std::string, std::string>> missed;  ///< session, sql
  uint64_t failed = 0;
  std::string first_error;
};

Result<SubmitReplay> ReplaySubmits(service::Service* svc, int pass,
                                   uint64_t seed, int count,
                                   const Preload& preload,
                                   const std::string& qft_json,
                                   Tracer* tracer) {
  SubmitReplay out;
  auto submit = [svc](const service::Request& r) -> Result<service::Response> {
    return svc->Submit(r);
  };
  const std::vector<std::string> names =
      SessionNames("r" + std::to_string(pass) + "_");
  std::map<std::string, std::vector<sql::OperatorProfile>> base;
  std::map<std::string, sql::PlanCacheStats> plan_base;
  for (const std::string& name : names) {
    QY_RETURN_IF_ERROR(LoadSession(name, preload, submit));
    sql::Database& db = svc->sessions().Find(name)->db();
    base[name] = db.profile().Snapshot();
    plan_base[name] = db.plan_cache_stats();
  }
  RequestStream stream(seed, names, &qft_json);
  for (int k = 0; k < count; ++k) {
    Pending p = stream.Next();
    sql::Database& db = svc->sessions().Find(p.request.session)->db();
    uint64_t misses = db.plan_cache_stats().misses;
    auto t0 = Clock::now();
    service::Response response;
    {
      Scope s(tracer, "service.submit", static_cast<uint32_t>(k));
      response = svc->Submit(p.request);
    }
    out.submit_s.push_back(Seconds(t0, Clock::now()));
    if (p.request.op == service::Request::Op::kQuery &&
        db.plan_cache_stats().misses != misses) {
      out.missed.emplace_back(p.request.session, p.request.sql);
    }
    std::string why = CheckResponse(p, response, preload);
    if (!why.empty()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = why;
    }
    out.requests.push_back(std::move(p.request));
    out.responses.push_back(std::move(response));
  }
  for (const std::string& name : names) {
    sql::Database& db = svc->sessions().Find(name)->db();
    const sql::PlanCacheStats& now = db.plan_cache_stats();
    out.counts.plan.hits += now.hits - plan_base[name].hits;
    out.counts.plan.misses += now.misses - plan_base[name].misses;
    out.counts.plan.evictions += now.evictions - plan_base[name].evictions;
    AddProfile(db, base[name], &out.counts.op_rows, &out.op_seconds);
    out.counts.spill_rows += db.total_rows_spilled();
    out.counts.spill_bytes += db.temp_files().total_spilled_bytes();
    out.counts.peak_bytes = std::max(out.counts.peak_bytes, db.tracker().peak());
  }
  return out;
}

int64_t AdmissionCount(const JsonValue& stats, const char* key) {
  const JsonValue* admission = stats.Find("admission");
  const JsonValue* v = admission == nullptr ? nullptr : admission->Find(key);
  return v == nullptr || !v->is_number() ? -1 : v->AsInt();
}

void RunServiceWorkload(const Args& args, Outcome* out) {
  const int setups = args.quick ? 2 : 5;
  const std::string socket = StrFormat("qybench-%d.sock", getpid());
  const std::string qft_json =
      qc::CircuitToJson(qc::Qft(kSimulateQubits), -1);

  // Set-up: input generation, Service + Server, a connected client with
  // both sessions loaded, warm-up requests. Repeated so setup_s is a median;
  // the last rig is the one measured.
  Preload preload;
  Rig rig;
  NormalizedTimes setup_ms;
  for (int i = 0; i < setups; ++i) {
    rig.Stop();
    auto t0 = Clock::now();
    preload = MakePreload(args.seed);
    Status started = rig.Start(socket, preload, qft_json);
    setup_ms.Add(Seconds(t0, Clock::now()) * 1e3);
    setup_ms.Flush();
    if (!started.ok()) {
      out->Fail("service set-up: " + started.ToString());
      return;
    }
  }

  RequestStream stream(args.seed, SessionNames("c"), &qft_json);
  Tracer off(false);
  const double window = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult plain = ClosedLoop(&rig, &stream, preload, window, &off);
  out->attempted += plain.attempted;
  out->failed += plain.failed;
  if (plain.failed != 0) out->Fail("service: " + plain.first_error);
  if (plain.ms.size() == 0) {
    out->Fail("service: no request completed");
    return;
  }

  if (!args.trace) {
    SetEndToEnd(plain.ms, setup_ms, rig.svc->tracker().peak(), out);
    return;
  }

  Tracer tracer(true);
  LoopResult traced =
      ClosedLoop(&rig, &stream, preload, args.seconds - window, &tracer);
  out->attempted += traced.attempted;
  out->failed += traced.failed;
  if (traced.failed != 0) out->Fail("service: " + traced.first_error);
  JsonValue stats = rig.svc->StatsJson();

  // Two in-process Submit replays of one fixed request prefix; the second
  // must repeat the first one's exact counts.
  const int count = args.quick ? 40 : 600;
  std::vector<SubmitReplay> passes;
  for (int pass = 0; pass < 2; ++pass) {
    auto replay = ReplaySubmits(rig.svc.get(), pass, args.seed, count, preload,
                                qft_json, pass == 0 ? &tracer : &off);
    if (!replay.ok()) {
      out->Fail("submit replay: " + replay.status().ToString());
      return;
    }
    out->attempted += replay->requests.size();
    out->failed += replay->failed;
    if (replay->failed != 0) out->Fail("submit replay: " + replay->first_error);
    passes.push_back(std::move(replay).value());
  }
  std::string why = DiffCounts(passes[1].counts, passes[0].counts);
  if (!why.empty()) out->Fail("exact counts did not repeat: " + why);
  const SubmitReplay& replay = passes[0];

  // Parse + bind of each text that missed the plan cache in the replay.
  double miss_s = 0;
  for (const auto& [session, sql] : replay.missed) {
    sql::Database& db = rig.svc->sessions().Find(session)->db();
    Scope s(&tracer, "sql.plan_miss", 0);
    auto t0 = Clock::now();
    auto stmt = sql::ParseStatement(sql);
    if (!stmt.ok() || stmt->select == nullptr ||
        !sql::BindSelect(*stmt->select, db.catalog(), {}).ok()) {
      out->Fail("cannot re-plan a missed statement: " + sql);
      continue;
    }
    miss_s += Seconds(t0, Clock::now());
  }

  // Codec cost per request round trip on the captured payloads.
  std::vector<double> codec_us;
  double response_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    for (size_t k = 0; k < replay.requests.size(); ++k) {
      std::string req = service::EncodeRequest(replay.requests[k]);
      auto decoded_req = service::DecodeRequest(req);
      std::string resp = service::EncodeResponse(replay.responses[k]);
      auto decoded_resp = service::DecodeResponse(resp);
      if (!decoded_req.ok() || !decoded_resp.ok()) {
        out->Fail("codec round trip failed");
        return;
      }
      if (rep == 0) response_bytes += static_cast<double>(resp.size());
    }
    codec_us.push_back(Seconds(t0, Clock::now()) * 1e6 /
                       static_cast<double>(replay.requests.size()));
  }

  std::vector<double> calls;
  for (OpKind kind : {OpKind::kQuery, OpKind::kRead, OpKind::kSimulate}) {
    std::vector<double> d = tracer.Durations(CallSpanName(kind), 0, UINT32_MAX);
    calls.insert(calls.end(), d.begin(), d.end());
  }
  auto call_p50 = [&](OpKind kind) {
    return Median(tracer.Durations(CallSpanName(kind), 0, UINT32_MAX));
  };
  SetSqlCounts(replay.counts, replay.op_seconds, out);
  auto& v = out->values;
  v["sql.plan_miss_s"] = miss_s;
  v["service.op.query.s_p50"] = call_p50(OpKind::kQuery);
  v["service.op.read.s_p50"] = call_p50(OpKind::kRead);
  v["service.op.simulate.s_p50"] = call_p50(OpKind::kSimulate);
  v["service.submit_s_p50"] = Median(replay.submit_s);
  v["service.wire_s_p50"] = Median(calls) - Median(replay.submit_s);
  v["service.codec_us"] = Median(codec_us);
  v["service.response_bytes_mean"] =
      response_bytes / static_cast<double>(replay.responses.size());
  v["service.admission.queued"] =
      static_cast<double>(AdmissionCount(stats, "queued"));
  v["service.admission.rejected"] =
      static_cast<double>(AdmissionCount(stats, "rejected"));
  v["service.admission.timed_out"] =
      static_cast<double>(AdmissionCount(stats, "timed_out"));
  v["trace.overhead"] = Median(traced.ms.norm()) / Median(plain.ms.norm());
  out->notes.push_back(ProbeNote(traced.ms));

  std::string path = "qybench-trace-service_mixed.json";
  if (!tracer.WriteJson(path)) out->Fail("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr,
                 "qybench: %s\nusage: qybench --workload NAME|all --seed N "
                 "--seconds S --trace 0|1 [--quick]\n",
                 error.c_str());
    return 2;
  }
  const std::vector<std::string> all = {"qft_dense", "sparse_repeat",
                                        "spill_budget", "service_mixed"};
  std::vector<std::string> names;
  if (args.workload == "all") {
    names = all;
  } else if (std::find(all.begin(), all.end(), args.workload) != all.end()) {
    names = {args.workload};
  } else {
    std::fprintf(stderr, "qybench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  PrintStamp(args);
  bool ok = true;
  for (const std::string& name : names) {
    Outcome out;
    if (IsSimWorkload(name)) {
      RunSimWorkload(name, args, &out);
    } else {
      RunServiceWorkload(args, &out);
    }
    if (out.attempted == 0) out.Fail("nothing was attempted");
    ok &= PrintOutcome(name, args.trace, &out) && out.correct;
  }
  return ok ? 0 : 1;
}
