/// \file qymera_sim.h
/// The Qymera RDBMS simulation driver: the end-to-end path of the paper
/// (Fig. 1) — translate the circuit to SQL, execute inside the relational
/// engine, read the final state relation back.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/json.h"
#include "common/thread_pool.h"
#include "core/fusion.h"
#include "core/translator.h"
#include "sim/simulator.h"

namespace qy::core {

struct QymeraOptions {
  sim::SimOptions base;

  /// Gate fusion (paper Sec. 3.2). Off by default so the executed SQL
  /// matches the paper's one-query-per-gate shape; benches flip it on.
  bool enable_fusion = false;
  FusionOptions fusion;

  /// Execution style:
  /// kMaterializedSteps — one CREATE TABLE AS per gate, dropping the
  ///   previous state (bounded to two live states; out-of-core friendly;
  ///   enables step inspection).
  /// kSingleQuery — the paper's Fig. 2c chained-CTE query.
  enum class Mode { kMaterializedSteps, kSingleQuery };
  Mode mode = Mode::kMaterializedSteps;

  /// Let the hash aggregate spill partitions to disk under memory pressure
  /// (paper Sec. 3.3 out-of-core simulation).
  bool enable_spill = true;

  /// ORDER BY s on the final query (Fig. 2c); costs a full sort.
  bool final_order_by = false;

  /// Force 128-bit state indices even for <= 62 qubits (testing).
  bool force_hugeint = false;

  /// Engine vector size.
  size_t chunk_size = 2048;

  /// Worker threads for the relational engine's morsel-driven parallelism.
  /// 0 = hardware concurrency (the default), 1 = fully serial execution
  /// (byte-identical to the pre-parallel engine).
  size_t num_threads = 0;

  /// Borrow an externally owned worker pool for the internal database
  /// instead of spawning one per run (the query service shares one pool
  /// across all sessions). Not owned; must outlive the simulator run.
  /// With external_pool set, num_threads == 0 follows the pool's width.
  qy::ThreadPool* external_pool = nullptr;
  /// Nest the run's memory tracker under a process-wide parent budget
  /// (see MemoryTracker). Not owned; must outlive the simulator run.
  qy::MemoryTracker* parent_tracker = nullptr;
};

/// Row-count/norm summary of a run that avoids materializing the state in
/// client memory (used by out-of-core benches where the final relation is
/// larger than the budget).
struct RunSummary {
  uint64_t final_rows = 0;
  double norm_squared = 0;
  uint64_t max_intermediate_rows = 0;
  uint64_t rows_spilled = 0;
  /// Prepared-plan cache counters of the run's database. In materialized
  /// mode the per-gate loop ping-pongs between two state-table names, so
  /// every repetition of a gate shape is a cache hit (parsed/planned once).
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  /// Per-operator stats rendering (sql::QueryProfile::ToString()) plus a
  /// "PlanCache:" line: the CLI's --stats text. Filled by both Run() and
  /// Execute(); read it from last_summary() after Run().
  std::string operator_profile;
  sim::SimMetrics metrics;
};

/// Machine-readable rendering of a RunSummary (counters, metrics and the
/// plan-cache numbers) for the CLI's --stats-json and the query service's
/// simulate responses. The operator_profile text is omitted — it is the
/// human rendering the JSON form exists to replace.
JsonValue RunSummaryToJson(const RunSummary& summary);

/// The relational engine's options for a run of any of the SQL simulators
/// (QymeraSimulator and the alt_encodings.h ablations).
sql::DatabaseOptions MakeDatabaseOptions(const QymeraOptions& options);

/// Called after each materialized step with the intermediate state
/// (education scenario: inspect |psi>_k evolving). Only fires in
/// kMaterializedSteps mode. Returning an error aborts the run.
using StepCallback = std::function<Status(
    size_t step, const qc::Gate& gate, const sim::SparseState& state)>;

class QymeraSimulator : public sim::Simulator {
 public:
  explicit QymeraSimulator(QymeraOptions options = QymeraOptions())
      : Simulator(options.base), qopts_(options) {}

  std::string name() const override { return "qymera-sql"; }

  /// Full run: execute in the RDBMS and read the final state back. The
  /// run's counters and operator profile land in last_summary().
  Result<sim::SparseState> Run(const qc::QuantumCircuit& circuit) override;

  /// The same run and SQL as Run() minus the final state readback; returns
  /// the counters only (also kept in last_summary()).
  Result<RunSummary> Execute(const qc::QuantumCircuit& circuit);

  /// Expose the SQL that Run would execute (education / debugging / tests).
  Result<Translation> Translate(const qc::QuantumCircuit& circuit) const;

  /// Install a per-step observer (see StepCallback).
  void set_step_callback(StepCallback cb) { step_callback_ = std::move(cb); }

  const QymeraOptions& qymera_options() const { return qopts_; }

  /// Counters and operator profile of the most recent successful
  /// Run()/Execute() (empty before any run). Backs --stats and --stats-json
  /// without forcing callers through Execute().
  const RunSummary& last_summary() const { return last_summary_; }

 private:
  /// Fuse *circuit in place (when enabled) and translate it: the one path
  /// from options to SQL for Translate(), Run() and Execute().
  Result<Translation> PrepareAndTranslate(qc::QuantumCircuit* circuit) const;
  /// The body of Run() and Execute(): execute in a fresh database and, when
  /// `final_state` is non-null, read the final state relation into it.
  Result<RunSummary> RunInternal(const qc::QuantumCircuit& circuit,
                                 sim::SparseState* final_state);

  QymeraOptions qopts_;
  StepCallback step_callback_;
  RunSummary last_summary_;
};

}  // namespace qy::core
