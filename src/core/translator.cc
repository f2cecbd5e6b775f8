#include "core/translator.h"

#include <map>

#include "common/bitops.h"
#include "common/strings.h"

namespace qy::core {

namespace {

/// Decimal SQL literal of a (possibly 128-bit) mask.
std::string MaskLiteral(qy::BasisIndex mask) {
  if (mask <= static_cast<qy::BasisIndex>(INT64_MAX)) {
    return std::to_string(static_cast<int64_t>(mask));
  }
  return qy::UInt128ToString(mask);
}

/// SELECT body applying `gate` to state relation `in` joined with gate
/// relation `g` (paper Fig. 2c, one step).
std::string StepSelectSql(const qc::Gate& gate, const std::string& in,
                          const std::string& g,
                          const TranslateOptions& options) {
  std::string out_expr = ScatterExpr(in, g, gate.qubits, options.use_hugeint);
  return AmplitudeProductSelect(out_expr + " AS s", in, g,
                                g + ".in_s = " + GatherExpr(in, gate.qubits),
                                out_expr, options.prune_epsilon);
}

}  // namespace

std::string AmplitudeProductSelect(const std::string& keys,
                                   const std::string& in, const std::string& g,
                                   const std::string& on,
                                   const std::string& group_by,
                                   double prune_epsilon) {
  std::string sum_r =
      "SUM((" + in + ".r * " + g + ".r) - (" + in + ".i * " + g + ".i))";
  std::string sum_i =
      "SUM((" + in + ".r * " + g + ".i) + (" + in + ".i * " + g + ".r))";
  std::string sql = "SELECT " + keys + ", " + sum_r + " AS r, " + sum_i +
                    " AS i FROM " + in + " JOIN " + g + " ON " + on +
                    " GROUP BY " + group_by;
  if (prune_epsilon > 0) {
    double eps2 = prune_epsilon * prune_epsilon;
    sql += " HAVING ((" + sum_r + " * " + sum_r + ") + (" + sum_i + " * " +
           sum_i + ")) > " + qy::DoubleToSql(eps2);
  }
  return sql;
}

std::string GatherExpr(const std::string& table,
                       const std::vector<int>& qubits) {
  std::string s = table + ".s";
  if (qy::IsContiguousAscending(qubits)) {
    int q = qubits[0];
    uint64_t mask = (uint64_t{1} << qubits.size()) - 1;
    if (q == 0) return "(" + s + " & " + std::to_string(mask) + ")";
    return "((" + s + " >> " + std::to_string(q) + ") & " +
           std::to_string(mask) + ")";
  }
  // General gather: bit qubits[i] of s becomes bit i.
  std::vector<std::string> parts;
  for (size_t i = 0; i < qubits.size(); ++i) {
    std::string bit = "((" + s + " >> " + std::to_string(qubits[i]) + ") & 1)";
    if (i > 0) bit = "(" + bit + " << " + std::to_string(i) + ")";
    parts.push_back(bit);
  }
  if (parts.size() == 1) return parts[0];
  std::string out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    out = "(" + out + " | " + parts[i] + ")";
  }
  return out;
}

std::string ScatterExpr(const std::string& table,
                        const std::string& gate_table,
                        const std::vector<int>& qubits, bool use_hugeint) {
  std::string s = table + ".s";
  std::string out_s = gate_table + ".out_s";
  if (use_hugeint) out_s = "CAST(" + out_s + " AS HUGEINT)";
  qy::BasisIndex mask = qy::QubitMask(qubits);
  std::string keep = "(" + s + " & ~" + MaskLiteral(mask) + ")";
  std::string scatter;
  if (qy::IsContiguousAscending(qubits)) {
    int q = qubits[0];
    scatter = q == 0 ? out_s : "(" + out_s + " << " + std::to_string(q) + ")";
  } else {
    std::vector<std::string> parts;
    for (size_t i = 0; i < qubits.size(); ++i) {
      std::string bit = i == 0 ? "(" + out_s + " & 1)"
                               : "((" + out_s + " >> " + std::to_string(i) +
                                     ") & 1)";
      if (qubits[i] > 0) {
        bit = "(" + bit + " << " + std::to_string(qubits[i]) + ")";
      }
      parts.push_back(bit);
    }
    scatter = parts[0];
    for (size_t i = 1; i < parts.size(); ++i) {
      scatter = "(" + scatter + " | " + parts[i] + ")";
    }
  }
  return "(" + keep + " | " + scatter + ")";
}

Result<Translation> TranslateCircuit(const qc::QuantumCircuit& circuit,
                                     const TranslateOptions& options) {
  QY_RETURN_IF_ERROR(circuit.status());
  Translation out;
  out.num_qubits = circuit.num_qubits();
  out.use_hugeint = options.use_hugeint;
  if (circuit.num_qubits() > 126) {
    return Status::InvalidArgument("at most 126 qubits supported");
  }
  if (!options.use_hugeint && circuit.num_qubits() > 62) {
    return Status::InvalidArgument(
        "more than 62 qubits requires use_hugeint (128-bit state indices)");
  }

  // Gate tables, deduplicated by table name.
  std::map<std::string, size_t> gate_index;
  std::vector<std::string> step_gate_tables;
  for (const qc::Gate& gate : circuit.gates()) {
    QY_ASSIGN_OR_RETURN(EncodedGate encoded, EncodeGate(gate));
    auto [it, inserted] =
        gate_index.try_emplace(encoded.table_name, out.gate_tables.size());
    if (inserted) out.gate_tables.push_back(std::move(encoded));
    step_gate_tables.push_back(out.gate_tables[it->second].table_name);
  }

  // Per-gate queries. Ping-pong naming alternates two relations by parity so
  // repeated gate shapes produce identical SQL text (plan-cache friendly).
  const std::string& prefix = options.state_prefix;
  for (size_t k = 0; k < circuit.gates().size(); ++k) {
    const qc::Gate& gate = circuit.gates()[k];
    GateQuery step;
    if (options.ping_pong_states) {
      step.input_table = prefix + std::to_string(k % 2);
      step.output_table = prefix + std::to_string((k + 1) % 2);
    } else {
      step.input_table = prefix + std::to_string(k);
      step.output_table = prefix + std::to_string(k + 1);
    }
    step.gate_table = step_gate_tables[k];
    step.select_sql =
        StepSelectSql(gate, step.input_table, step.gate_table, options);
    out.steps.push_back(std::move(step));
  }

  // Chained single query (Fig. 2c). CTE names must be unique within one WITH
  // clause, so this always uses indexed names regardless of ping-pong.
  std::string final_table = prefix + std::to_string(circuit.gates().size());
  if (out.steps.empty()) {
    out.single_query = "SELECT s, r, i FROM " + prefix + "0";
  } else {
    std::vector<std::string> ctes;
    for (size_t k = 0; k < out.steps.size(); ++k) {
      std::string cte_in = prefix + std::to_string(k);
      std::string cte_out = prefix + std::to_string(k + 1);
      std::string body =
          options.ping_pong_states
              ? StepSelectSql(circuit.gates()[k], cte_in,
                              out.steps[k].gate_table, options)
              : out.steps[k].select_sql;
      ctes.push_back(cte_out + " AS (" + body + ")");
    }
    out.single_query = "WITH " + qy::StrJoin(ctes, ", ") + " SELECT s, r, i FROM " +
                       final_table;
  }
  if (options.order_final) out.single_query += " ORDER BY s";
  return out;
}

}  // namespace qy::core
