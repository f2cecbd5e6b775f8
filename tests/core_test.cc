/// Tests of the paper's core contribution: encoding, SQL translation
/// (including the exact Fig. 2 golden text), gate fusion, and the Qymera
/// driver (modes, pruning, step inspection, >62-qubit indices, out-of-core).
#include <gtest/gtest.h>

#include "circuit/families.h"
#include "core/alt_encodings.h"
#include "core/encoding.h"
#include "core/fusion.h"
#include "core/qymera_sim.h"
#include "core/translator.h"
#include "sim/statevector.h"

namespace qy::core {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

TEST(EncodingTest, CxGateRowsMatchPaperFig2b) {
  auto encoded = EncodeGate({qc::GateType::kCX, {0, 1}, {}, {}, ""});
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->table_name, "g_cx");
  ASSERT_EQ(encoded->rows.size(), 4u);
  // Paper's table: in_s -> out_s: {0->0, 1->3, 2->2, 3->1}, all amplitude 1.
  std::map<int64_t, int64_t> mapping;
  for (const GateRow& row : encoded->rows) {
    mapping[row.in_s] = row.out_s;
    EXPECT_DOUBLE_EQ(row.r, 1.0);
    EXPECT_DOUBLE_EQ(row.i, 0.0);
  }
  EXPECT_EQ(mapping[0], 0);
  EXPECT_EQ(mapping[1], 3);
  EXPECT_EQ(mapping[2], 2);
  EXPECT_EQ(mapping[3], 1);
}

TEST(EncodingTest, HGateRowsMatchPaperFig2b) {
  auto encoded = EncodeGate({qc::GateType::kH, {0}, {}, {}, ""});
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(encoded->rows.size(), 4u);
  for (const GateRow& row : encoded->rows) {
    double expect = (row.in_s == 1 && row.out_s == 1) ? -kInvSqrt2 : kInvSqrt2;
    EXPECT_DOUBLE_EQ(row.r, expect);
  }
}

TEST(EncodingTest, SparseGateStoresOnlyNonzeros) {
  auto encoded = EncodeGate({qc::GateType::kZ, {0}, {}, {}, ""});
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->rows.size(), 2u);  // diagonal only
}

TEST(EncodingTest, OppositeAnglesGetDistinctTables) {
  // Regression: ry(theta) and ry(-theta) must never share a gate table.
  qc::Gate pos{qc::GateType::kRY, {0}, {0.5236}, {}, ""};
  qc::Gate neg{qc::GateType::kRY, {0}, {-0.5236}, {}, ""};
  auto mp = qc::MatrixForGate(pos);
  auto mn = qc::MatrixForGate(neg);
  ASSERT_TRUE(mp.ok() && mn.ok());
  EXPECT_NE(GateTableName(pos, *mp), GateTableName(neg, *mn));
}

TEST(EncodingTest, StateTableRoundTrip) {
  sql::Database db;
  sim::SparseState state(3, {{sim::BasisIndex{0}, {kInvSqrt2, 0}},
                             {sim::BasisIndex{7}, {0, kInvSqrt2}}});
  ASSERT_TRUE(MaterializeStateTable(&db, "T0", state, false).ok());
  auto back = ReadStateTable(&db, "T0", 3, 1e-12);
  ASSERT_TRUE(back.ok());
  EXPECT_LT(sim::SparseState::MaxAmplitudeDiff(state, *back), 1e-15);
}

TEST(EncodingTest, StateTableHugeIntRoundTrip) {
  sql::Database db;
  sim::BasisIndex wide = static_cast<sim::BasisIndex>(1) << 90;
  sim::SparseState state(100, {{wide, {1.0, 0}}});
  ASSERT_TRUE(MaterializeStateTable(&db, "T0", state, true).ok());
  auto back = ReadStateTable(&db, "T0", 100, 1e-12);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->amplitudes()[0].first, wide);
}

// ---------------------------------------------------------------------------
// Translator: golden SQL
// ---------------------------------------------------------------------------

TEST(TranslatorTest, Fig2GhzGoldenSql) {
  // The paper's running example (3-qubit GHZ): the generated queries must
  // have exactly the Fig. 2c shape (modulo gate-table naming).
  TranslateOptions options;
  options.prune_epsilon = 0;  // Fig. 2 has no HAVING clause
  auto t = TranslateCircuit(qc::Ghz(3), options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->steps.size(), 3u);
  EXPECT_EQ(t->steps[0].select_sql,
            "SELECT ((T0.s & ~1) | g_h.out_s) AS s, "
            "SUM((T0.r * g_h.r) - (T0.i * g_h.i)) AS r, "
            "SUM((T0.r * g_h.i) + (T0.i * g_h.r)) AS i "
            "FROM T0 JOIN g_h ON g_h.in_s = (T0.s & 1) "
            "GROUP BY ((T0.s & ~1) | g_h.out_s)");
  EXPECT_EQ(t->steps[1].select_sql,
            "SELECT ((T1.s & ~3) | g_cx.out_s) AS s, "
            "SUM((T1.r * g_cx.r) - (T1.i * g_cx.i)) AS r, "
            "SUM((T1.r * g_cx.i) + (T1.i * g_cx.r)) AS i "
            "FROM T1 JOIN g_cx ON g_cx.in_s = (T1.s & 3) "
            "GROUP BY ((T1.s & ~3) | g_cx.out_s)");
  EXPECT_EQ(t->steps[2].select_sql,
            "SELECT ((T2.s & ~6) | (g_cx.out_s << 1)) AS s, "
            "SUM((T2.r * g_cx.r) - (T2.i * g_cx.i)) AS r, "
            "SUM((T2.r * g_cx.i) + (T2.i * g_cx.r)) AS i "
            "FROM T2 JOIN g_cx ON g_cx.in_s = ((T2.s >> 1) & 3) "
            "GROUP BY ((T2.s & ~6) | (g_cx.out_s << 1))");
  EXPECT_EQ(t->single_query,
            "WITH T1 AS (" + t->steps[0].select_sql + "), T2 AS (" +
                t->steps[1].select_sql + "), T3 AS (" + t->steps[2].select_sql +
                ") SELECT s, r, i FROM T3 ORDER BY s");
}

TEST(TranslatorTest, GateTablesDeduplicated) {
  auto t = TranslateCircuit(qc::Ghz(5));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->gate_tables.size(), 2u);  // g_h and g_cx only
  EXPECT_EQ(t->steps.size(), 5u);
}

TEST(TranslatorTest, GatherScatterContiguous) {
  EXPECT_EQ(GatherExpr("T", {0}), "(T.s & 1)");
  EXPECT_EQ(GatherExpr("T", {2}), "((T.s >> 2) & 1)");
  EXPECT_EQ(GatherExpr("T", {1, 2}), "((T.s >> 1) & 3)");
  EXPECT_EQ(ScatterExpr("T", "G", {0, 1}, false), "((T.s & ~3) | G.out_s)");
  EXPECT_EQ(ScatterExpr("T", "G", {1, 2}, false),
            "((T.s & ~6) | (G.out_s << 1))");
}

TEST(TranslatorTest, GatherScatterArbitraryQubitOrder) {
  // CX(2, 0): control = local bit 0 = qubit 2, target = local bit 1 = qubit 0.
  std::string gather = GatherExpr("T", {2, 0});
  EXPECT_EQ(gather, "(((T.s >> 2) & 1) | (((T.s >> 0) & 1) << 1))");
  std::string scatter = ScatterExpr("T", "G", {2, 0}, false);
  EXPECT_EQ(scatter,
            "((T.s & ~5) | (((G.out_s & 1) << 2) | ((G.out_s >> 1) & 1)))");
}

TEST(TranslatorTest, PruningAddsHavingClause) {
  TranslateOptions options;
  options.prune_epsilon = 0.5;  // exactly representable: eps^2 = 0.25
  auto t = TranslateCircuit(qc::Ghz(2), options);
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->steps[0].select_sql.find("HAVING"), std::string::npos);
  EXPECT_NE(t->steps[0].select_sql.find("> 0.25"), std::string::npos);
}

TEST(TranslatorTest, HugeIntCastsScatter) {
  TranslateOptions options;
  options.use_hugeint = true;
  auto t = TranslateCircuit(qc::Ghz(3), options);
  ASSERT_TRUE(t.ok());
  EXPECT_NE(t->steps[0].select_sql.find("CAST(g_h.out_s AS HUGEINT)"),
            std::string::npos);
}

TEST(TranslatorTest, WidthGuards) {
  EXPECT_FALSE(TranslateCircuit(qc::Ghz(63)).ok());  // needs hugeint
  TranslateOptions options;
  options.use_hugeint = true;
  EXPECT_TRUE(TranslateCircuit(qc::Ghz(63), options).ok());
}

TEST(TranslatorTest, EmptyCircuitSelectsInitialState) {
  qc::QuantumCircuit c(2);
  TranslateOptions options;
  options.order_final = true;
  auto t = TranslateCircuit(c, options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->single_query, "SELECT s, r, i FROM T0 ORDER BY s");
}

// ---------------------------------------------------------------------------
// Fusion
// ---------------------------------------------------------------------------

TEST(FusionTest, GhzFusesFully) {
  FusionOptions options;
  options.max_qubits = 3;
  FusionStats stats;
  auto fused = FuseGates(qc::Ghz(3), options, &stats);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(stats.gates_before, 3);
  EXPECT_EQ(stats.gates_after, 1);
  EXPECT_EQ(fused->gates()[0].type, qc::GateType::kCustom);
}

TEST(FusionTest, SingleGateGroupsKeepOriginalGate) {
  // Alternating far-apart gates cannot fuse at max_qubits=2; originals kept.
  qc::QuantumCircuit c(6);
  c.CX(0, 1).CX(4, 5).CX(0, 1);
  FusionOptions options;
  options.max_qubits = 2;
  auto fused = FuseGates(c, options);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused->NumGates(), 3u);
  EXPECT_EQ(fused->gates()[0].type, qc::GateType::kCX);
}

TEST(FusionTest, OversizedGatePassesThrough) {
  qc::QuantumCircuit c(4);
  c.CCX(0, 1, 2).H(3);
  FusionOptions options;
  options.max_qubits = 2;
  auto fused = FuseGates(c, options);
  ASSERT_TRUE(fused.ok());
  EXPECT_EQ(fused->gates()[0].type, qc::GateType::kCCX);
}

TEST(FusionTest, EquivalenceOnRandomCircuits) {
  sim::StatevectorSimulator sim;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    qc::QuantumCircuit c = qc::RandomDense(5, 3, seed);
    auto expect = sim.Run(c);
    ASSERT_TRUE(expect.ok());
    for (int max_qubits : {1, 2, 3, 4}) {
      FusionOptions options;
      options.max_qubits = max_qubits;
      auto fused = FuseGates(c, options);
      ASSERT_TRUE(fused.ok());
      auto got = sim.Run(*fused);
      ASSERT_TRUE(got.ok());
      EXPECT_LT(sim::SparseState::MaxAmplitudeDiff(*expect, *got), 1e-9)
          << "seed=" << seed << " max_qubits=" << max_qubits;
    }
  }
}

TEST(FusionTest, ReducesGateCount) {
  FusionOptions options;
  options.max_qubits = 2;
  FusionStats stats;
  auto fused = FuseGates(qc::RandomDense(6, 4, 5), options, &stats);
  ASSERT_TRUE(fused.ok());
  EXPECT_LT(stats.gates_after, stats.gates_before);
}

// ---------------------------------------------------------------------------
// Qymera driver
// ---------------------------------------------------------------------------

TEST(QymeraSimTest, GhzAnalyticResult) {
  QymeraSimulator sim{QymeraOptions{}};
  auto state = sim.Run(qc::Ghz(3));
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_EQ(state->NumNonZero(), 2u);
  EXPECT_NEAR(std::abs(state->Amplitude(0) - sim::Complex(kInvSqrt2, 0)), 0,
              1e-12);
  EXPECT_NEAR(std::abs(state->Amplitude(7) - sim::Complex(kInvSqrt2, 0)), 0,
              1e-12);
}

TEST(QymeraSimTest, ExecuteSummaryWithoutReadback) {
  QymeraSimulator sim{QymeraOptions{}};
  auto summary = sim.Execute(qc::EqualSuperposition(10));
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->final_rows, 1024u);
  EXPECT_NEAR(summary->norm_squared, 1.0, 1e-9);
  EXPECT_EQ(summary->max_intermediate_rows, 1024u);
}

TEST(QymeraSimTest, InterferencePrunesCancelledStates) {
  // GHZ round trip: the HAVING pruning must drop exact cancellations, so the
  // final relation holds one row (paper: only nonzero states stored).
  QymeraSimulator sim{QymeraOptions{}};
  auto summary = sim.Execute(qc::GhzRoundTrip(8));
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->final_rows, 1u);
}

TEST(QymeraSimTest, StepCallbackSeesIntermediateStates) {
  QymeraSimulator sim{QymeraOptions{}};
  std::vector<size_t> nnz_per_step;
  sim.set_step_callback(
      [&](size_t /*step*/, const qc::Gate& /*gate*/,
          const sim::SparseState& state) {
        nnz_per_step.push_back(state.NumNonZero());
        return Status::OK();
      });
  ASSERT_TRUE(sim.Run(qc::Ghz(3)).ok());
  // |psi1| = 2 (after H), stays 2 through both CX.
  EXPECT_EQ(nnz_per_step, (std::vector<size_t>{2, 2, 2}));
}

TEST(QymeraSimTest, StepCallbackErrorAborts) {
  QymeraSimulator sim{QymeraOptions{}};
  sim.set_step_callback([](size_t, const qc::Gate&, const sim::SparseState&) {
    return Status::Internal("stop here");
  });
  auto result = sim.Run(qc::Ghz(3));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(QymeraSimTest, WideGhzUsesHugeIntAutomatically) {
  QymeraSimulator sim{QymeraOptions{}};
  auto state = sim.Run(qc::Ghz(70));
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_EQ(state->NumNonZero(), 2u);
  sim::BasisIndex ones = (static_cast<sim::BasisIndex>(1) << 70) - 1;
  EXPECT_NEAR(std::abs(state->Amplitude(ones)), kInvSqrt2, 1e-12);
}

TEST(QymeraSimTest, SpillKeepsResultsExact) {
  // A budget below the last gate's working set forces aggregate spill;
  // results must match the unconstrained run.
  // The last gate reads 2^13 rows (192 KiB at 24 B a row) and writes 2^14
  // (384 KiB). Its aggregate, 16,384 groups at about 30 B (480 KiB), does
  // not fit beside its input under 768 KiB and spills, while the input, the
  // output and one merged partition do fit. Budgets from 640 to 864 KiB
  // spill and pass.
  QymeraOptions constrained;
  constrained.base.memory_budget_bytes = 768 << 10;
  QymeraSimulator small(constrained);
  auto summary = small.Execute(qc::EqualSuperposition(14));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->final_rows, 16384u);
  EXPECT_NEAR(summary->norm_squared, 1.0, 1e-9);
  EXPECT_GT(summary->rows_spilled, 0u) << "expected an out-of-core run";
}

TEST(QymeraSimTest, SpillDisabledHitsMemoryWall) {
  QymeraOptions options;
  options.base.memory_budget_bytes = 600 << 10;
  options.enable_spill = false;
  QymeraSimulator sim(options);
  auto result = sim.Execute(qc::EqualSuperposition(14));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
}

TEST(QymeraSimTest, DenseQftPeakIsStateTablesPlusLeanAggregate) {
  // X on every other qubit, then QFT-14: dense 16,384-row states. The
  // tracker peak is the input and output state tables (16,384 x 24 B each,
  // 0.75 MiB) plus one gate's group table, which must stay near 30 B per
  // group (8 B key, two 9 B sums, one 4 B direct slot): 1.22 MiB. Hashing
  // the dense keys instead adds a 26 B-per-group index (1.56 MiB).
  qc::QuantumCircuit circuit(14, "xqft14");
  for (int q = 0; q < 14; q += 2) circuit.X(q);
  circuit.Compose(qc::Qft(14));
  QymeraOptions options;
  options.num_threads = 1;
  QymeraSimulator sim(options);
  auto state = sim.Run(circuit);
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  ASSERT_EQ(state->NumNonZero(), 16384u);
  double peak_mib = static_cast<double>(sim.metrics().peak_bytes) / (1 << 20);
  EXPECT_LT(peak_mib, 1.3);
  EXPECT_GT(peak_mib, 0.75) << "both state tables must be counted";
}

TEST(QymeraSimTest, TranslateExposesSql) {
  QymeraSimulator sim{QymeraOptions{}};
  auto t = sim.Translate(qc::Ghz(3));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->steps.size(), 3u);
  EXPECT_NE(t->single_query.find("WITH T1 AS"), std::string::npos);
}

TEST(QymeraSimTest, InvalidCircuitPropagates) {
  QymeraSimulator sim{QymeraOptions{}};
  qc::QuantumCircuit bad(2);
  bad.H(7);
  EXPECT_FALSE(sim.Run(bad).ok());
}

// ---------------------------------------------------------------------------
// Ablation encodings
// ---------------------------------------------------------------------------

TEST(AltEncodingTest, StringBackendMatchesOnBell) {
  StringEncodedSimulator sim{QymeraOptions{}};
  auto state = sim.Run(qc::BellPair());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_NEAR(std::abs(state->Amplitude(0)), kInvSqrt2, 1e-12);
  EXPECT_NEAR(std::abs(state->Amplitude(3)), kInvSqrt2, 1e-12);
}

TEST(AltEncodingTest, TensorBackendMatchesOnBell) {
  TensorColumnSimulator sim{QymeraOptions{}};
  auto state = sim.Run(qc::BellPair());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_NEAR(std::abs(state->Amplitude(3)), kInvSqrt2, 1e-12);
}

TEST(AltEncodingTest, WidthLimitsEnforced) {
  StringEncodedSimulator s{QymeraOptions{}};
  EXPECT_EQ(s.Run(qc::Ghz(31)).status().code(), StatusCode::kUnsupported);
  TensorColumnSimulator t{QymeraOptions{}};
  EXPECT_EQ(t.Run(qc::Ghz(25)).status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace qy::core
