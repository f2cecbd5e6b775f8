#include "bench/runner.h"

#include "core/alt_encodings.h"
#include "sim/dd.h"
#include "sim/mps.h"
#include "sim/sparse_sim.h"
#include "sim/statevector.h"

namespace qy::bench {

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kQymeraSql: return "qymera-sql";
    case Backend::kStatevector: return "statevector";
    case Backend::kSparse: return "sparse";
    case Backend::kMps: return "mps";
    case Backend::kDd: return "dd";
    case Backend::kSqlString: return "sql-string";
    case Backend::kSqlTensor: return "sql-tensor";
  }
  return "?";
}

std::vector<Backend> MainBackends() {
  return {Backend::kQymeraSql, Backend::kStatevector, Backend::kSparse,
          Backend::kMps, Backend::kDd};
}

std::unique_ptr<sim::Simulator> MakeSimulator(
    Backend backend, const sim::SimOptions& options,
    const core::QymeraOptions* qopts) {
  core::QymeraOptions q;
  if (qopts != nullptr) q = *qopts;
  q.base = options;
  switch (backend) {
    case Backend::kQymeraSql:
      return std::make_unique<core::QymeraSimulator>(q);
    case Backend::kStatevector:
      return std::make_unique<sim::StatevectorSimulator>(options);
    case Backend::kSparse:
      return std::make_unique<sim::SparseSimulator>(options);
    case Backend::kMps:
      return std::make_unique<sim::MpsSimulator>(options);
    case Backend::kDd:
      return std::make_unique<sim::DdSimulator>(options);
    case Backend::kSqlString:
      return std::make_unique<core::StringEncodedSimulator>(q);
    case Backend::kSqlTensor:
      return std::make_unique<core::TensorColumnSimulator>(q);
  }
  return nullptr;
}

RunResult RunOnce(Backend backend, const qc::QuantumCircuit& circuit,
                  const sim::SimOptions& options,
                  const core::QymeraOptions* qopts) {
  RunResult out;
  auto simulator = MakeSimulator(backend, options, qopts);
  auto state = simulator->Run(circuit);
  const sim::SimMetrics& m = simulator->metrics();
  out.seconds = m.wall_seconds;
  out.peak_bytes = m.peak_bytes;
  out.backend_stat = m.backend_stat;
  out.backend_stat_name = m.backend_stat_name;
  if (!state.ok()) {
    out.ok = false;
    out.error = state.status().ToString();
    return out;
  }
  out.ok = true;
  out.nnz = state->NumNonZero();
  out.norm_squared = state->NormSquared();
  return out;
}

RunResult RunSummaryOnly(Backend backend, const qc::QuantumCircuit& circuit,
                         const sim::SimOptions& options,
                         const core::QymeraOptions* qopts) {
  if (backend != Backend::kQymeraSql) {
    return RunOnce(backend, circuit, options, qopts);
  }
  RunResult out;
  core::QymeraOptions q;
  if (qopts != nullptr) q = *qopts;
  q.base = options;
  core::QymeraSimulator simulator(q);
  auto summary = simulator.Execute(circuit);
  const sim::SimMetrics& m = simulator.metrics();
  out.seconds = m.wall_seconds;
  out.peak_bytes = m.peak_bytes;
  out.backend_stat = m.backend_stat;
  out.backend_stat_name = m.backend_stat_name;
  if (!summary.ok()) {
    out.ok = false;
    out.error = summary.status().ToString();
    return out;
  }
  out.ok = true;
  out.nnz = summary->final_rows;
  out.norm_squared = summary->norm_squared;
  return out;
}

int MaxQubitsUnderBudget(Backend backend,
                         const std::function<qc::QuantumCircuit(int)>& make,
                         uint64_t budget_bytes, int lo, int hi, int step) {
  sim::SimOptions options;
  options.memory_budget_bytes = budget_bytes;
  auto fits = [&](int n) {
    qc::QuantumCircuit circuit = make(n);
    RunResult r = RunSummaryOnly(backend, circuit, options);
    return r.ok;
  };
  if (!fits(lo)) return lo - 1;
  int best = lo;
  int n = lo + step;
  while (n <= hi && fits(n)) {
    best = n;
    n += step;
  }
  // Refine between best and min(n, hi).
  for (int m = best + 1; m <= std::min(n - 1, hi); ++m) {
    if (!fits(m)) break;
    best = m;
  }
  return best;
}

}  // namespace qy::bench
