/// \file translator.h
/// Circuit -> SQL translation (paper Sec. 2.2 and Fig. 2c).
///
/// Each gate becomes one SELECT: join the current state relation with the
/// gate relation on the bits of `s` that belong to the gate's qubits
/// (extracted with & and >>), recombine untouched bits with the gate's
/// output bits (& ~mask, |, <<), multiply complex amplitudes and GROUP BY
/// the output index with SUM (quantum interference). Contiguous ascending
/// qubit sets use the compact shift form shown in the paper; arbitrary qubit
/// sets fall back to per-bit gather/scatter expressions.
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/encoding.h"

namespace qy::core {

struct TranslateOptions {
  /// Encode `s` as HUGEINT (auto-selected by the driver for > 62 qubits).
  bool use_hugeint = false;
  /// Post-aggregation pruning: HAVING r*r + i*i > eps^2 (0 disables). This
  /// keeps only nonzero basis states in the table, matching Sec. 2.1.
  double prune_epsilon = 1e-12;
  /// ORDER BY s on the final SELECT (Fig. 2c does; costs a sort).
  bool order_final = true;
  /// Name prefix of the chained state relations: T0, T1, ...
  std::string state_prefix = "T";
  /// Name the per-gate state relations by parity (T0/T1 alternating, ping-
  /// pong) instead of by step index (T0..Tn). Repeated gate shapes then emit
  /// byte-identical SQL text, which the engine's prepared-plan cache turns
  /// into one parse/bind/plan per distinct shape for the whole circuit. Only
  /// affects `steps`; `single_query` always uses indexed CTE names (CTE
  /// names within one WITH clause must be unique).
  bool ping_pong_states = false;
};

/// One gate's translation.
struct GateQuery {
  std::string input_table;   ///< e.g. "T0"
  std::string output_table;  ///< e.g. "T1"
  std::string gate_table;    ///< e.g. "g_h"
  /// The SELECT body (no CTE wrapper), e.g.
  /// "SELECT ((T0.s & ~1) | g_h.out_s) AS s, ... FROM T0 JOIN g_h ON ..."
  std::string select_sql;
};

/// Full translation of a circuit.
struct Translation {
  int num_qubits = 0;
  bool use_hugeint = false;
  std::vector<EncodedGate> gate_tables;  ///< deduplicated
  std::vector<GateQuery> steps;          ///< one per gate, in order
  /// Single chained-CTE query (Fig. 2c shape):
  /// WITH T1 AS (...), ... SELECT s, r, i FROM Tn [ORDER BY s].
  std::string single_query;
};

/// Translate a circuit into gate tables plus per-gate queries and the
/// chained single query. Fails for circuits wider than 126 qubits or with
/// invalid gates.
Result<Translation> TranslateCircuit(const qc::QuantumCircuit& circuit,
                                     const TranslateOptions& options = {});

/// One gate step over state relation `in` and gate relation `g` (paper
/// Fig. 2c): "SELECT <keys>, SUM(...) AS r, SUM(...) AS i FROM <in> JOIN <g>
/// ON <on> GROUP BY <group_by>", the complex products of the two relations'
/// amplitudes summed per output state, plus "HAVING r*r + i*i > eps^2" when
/// prune_epsilon > 0. `keys` are the select items of the output index.
std::string AmplitudeProductSelect(const std::string& keys,
                                   const std::string& in, const std::string& g,
                                   const std::string& on,
                                   const std::string& group_by,
                                   double prune_epsilon);

/// Expression that extracts the gate-local input index from `table`.s
/// (the join key: paper's "filter qubit for input states").
std::string GatherExpr(const std::string& table,
                       const std::vector<int>& qubits);

/// Expression computing the output state index from `table`.s and
/// `gate_table`.out_s.
std::string ScatterExpr(const std::string& table,
                        const std::string& gate_table,
                        const std::vector<int>& qubits, bool use_hugeint);

}  // namespace qy::core
