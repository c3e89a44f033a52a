// Whole-solve path parity: a solve with engine_backend = automatic (the
// default), dense_scatter or simd (vectorized RowStore panels at f64) must
// produce a BIT-IDENTICAL model to engine_backend = reference — same
// iteration count, same beta, same support vectors, same coefficients, on
// zoo datasets the automatic rule sends to the panels (codrna, usps,
// mushrooms) and to the scatter path (a9a, w7a), for the sequential and the
// distributed solver, with and without shrinking, and through a
// checkpoint/restart chaos run. The path changes speed, never a result.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "core/distributed_solver.hpp"
#include "core/sequential_smo.hpp"
#include "core/trainer.hpp"
#include "data/zoo.hpp"
#include "mpisim/fault.hpp"
#include "mpisim/spmd.hpp"

namespace {

using svmcore::DistributedConfig;
using svmcore::DistributedSolver;
using svmcore::Heuristic;
using svmcore::RecoveryOptions;
using svmcore::RecoveryReport;
using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmcore::TrainResult;
using svmdata::Dataset;
using svmdata::ZooEntry;
using svmkernel::EngineBackend;
using svmkernel::KernelParams;

SolverParams params_for(const ZooEntry& entry, EngineBackend backend) {
  SolverParams p;
  p.C = entry.C;
  p.eps = 1e-3;
  p.kernel = KernelParams::rbf_with_sigma_sq(entry.sigma_sq);
  p.engine_backend = backend;
  return p;
}

void expect_bit_identical(const TrainResult& a, const TrainResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.beta, b.beta);
  EXPECT_EQ(a.converged, b.converged);
  ASSERT_EQ(a.model.num_support_vectors(), b.model.num_support_vectors());
  for (std::size_t j = 0; j < a.model.num_support_vectors(); ++j)
    EXPECT_EQ(a.model.coefficients()[j], b.model.coefficients()[j]) << "sv " << j;
}

struct ParityCase {
  const char* dataset;
  const char* heuristic;
  int ranks;
  double scale;
};

/// Names the case by meaning, e.g. "w7a_Multi5pc_r3": raw struct bytes would
/// embed string pointers that change on every test discovery.
void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << c.dataset << '_' << c.heuristic << "_r" << c.ranks;
}

class ModelParityP : public ::testing::TestWithParam<ParityCase> {};

TEST_P(ModelParityP, DenseScatterModelBitIdenticalToReference) {
  const ParityCase c = GetParam();
  const ZooEntry& entry = svmdata::zoo_entry(c.dataset);
  const Dataset train = svmdata::make_train(entry, c.scale);

  TrainOptions options;
  options.num_ranks = c.ranks;
  options.heuristic = Heuristic::parse(c.heuristic);

  const TrainResult ref =
      svmcore::train(train, params_for(entry, EngineBackend::reference), options);
  const TrainResult fused =
      svmcore::train(train, params_for(entry, EngineBackend::dense_scatter), options);
  const TrainResult simd =
      svmcore::train(train, params_for(entry, EngineBackend::simd), options);
  const TrainResult automatic =
      svmcore::train(train, params_for(entry, EngineBackend::automatic), options);

  ASSERT_TRUE(ref.converged) << c.dataset;
  expect_bit_identical(fused, ref);
  expect_bit_identical(simd, ref);
  expect_bit_identical(automatic, ref);
  // Work accounting matches too: every path reports one evaluation per
  // produced kernel value, exactly like the reference merge join.
  EXPECT_EQ(fused.total_kernel_evaluations, ref.total_kernel_evaluations);
  EXPECT_EQ(simd.total_kernel_evaluations, ref.total_kernel_evaluations);
  EXPECT_EQ(automatic.total_kernel_evaluations, ref.total_kernel_evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelParityP,
    ::testing::Values(ParityCase{"a9a", "Original", 2, 0.15},       // sparse, no shrink
                      ParityCase{"w7a", "Multi5pc", 3, 0.15},       // sparse, shrinking
                      ParityCase{"usps", "Multi2", 2, 0.2},         // pixels
                      ParityCase{"codrna", "Single5pc", 4, 0.15},   // dense, shrinking
                      ParityCase{"mushrooms", "Original", 1, 0.4}),
    ::testing::PrintToStringParamName());

TEST(EngineParity, SequentialAlphasBitIdenticalAcrossBackends) {
  // One dataset on each side of the automatic rule.
  for (const auto& [name, resolved] : {std::pair{"a9a", EngineBackend::dense_scatter},
                                       std::pair{"codrna", EngineBackend::simd}}) {
    SCOPED_TRACE(name);
    const ZooEntry& entry = svmdata::zoo_entry(name);
    const Dataset train = svmdata::make_train(entry, 0.15);

    const auto ref =
        svmcore::solve_sequential(train, params_for(entry, EngineBackend::reference));
    ASSERT_TRUE(ref.stats.converged);
    for (const EngineBackend backend :
         {EngineBackend::dense_scatter, EngineBackend::simd, EngineBackend::automatic}) {
      SCOPED_TRACE(svmkernel::to_string(backend));
      const auto got = svmcore::solve_sequential(train, params_for(entry, backend));
      EXPECT_EQ(got.stats.engine_backend,
                backend == EngineBackend::automatic ? resolved : backend);
      EXPECT_EQ(got.stats.iterations, ref.stats.iterations);
      EXPECT_EQ(got.beta, ref.beta);
      ASSERT_EQ(got.alpha.size(), ref.alpha.size());
      for (std::size_t i = 0; i < ref.alpha.size(); ++i)
        EXPECT_EQ(got.alpha[i], ref.alpha[i]) << "alpha " << i;
    }
  }
}

TEST(EngineParity, CheckpointRestartPreservesBackendParity) {
  // The strongest form of the guarantee: a run on any path that crashes
  // mid-solve and restarts from a checkpoint must still land bit-identical
  // to a fault-free REFERENCE-path run — on a dataset the automatic rule
  // sends to the scatter path (a9a) and one it sends to the panels
  // (mushrooms).
  for (const auto& [name, scale, resolved] :
       {std::tuple{"a9a", 0.2, "dense_scatter"}, std::tuple{"mushrooms", 0.4, "simd"}}) {
    SCOPED_TRACE(name);
    const ZooEntry& entry = svmdata::zoo_entry(name);
    const Dataset train = svmdata::make_train(entry, scale);

    TrainOptions options;
    options.num_ranks = 4;
    options.heuristic = Heuristic::parse("Multi5pc");

    const TrainResult baseline =
        svmcore::train(train, params_for(entry, EngineBackend::reference), options);
    ASSERT_TRUE(baseline.converged);

    for (const EngineBackend backend :
         {EngineBackend::dense_scatter, EngineBackend::simd, EngineBackend::automatic}) {
      SCOPED_TRACE(svmkernel::to_string(backend));

      // Probe a fault-free run's op count so the crash lands mid-solve.
      svmmpi::FaultInjector probe{svmmpi::FaultPlan{}};
      const SolverParams fast_params = params_for(entry, backend);
      const DistributedConfig config = svmcore::solver_config(fast_params, options);
      svmmpi::run_spmd(
          options.num_ranks,
          [&](svmmpi::Comm& comm) {
            DistributedSolver solver(comm, train, config);
            (void)solver.solve();
          },
          options.net_model, nullptr, &probe);
      const std::uint64_t total_ops = probe.ops(1);
      ASSERT_GT(total_ops, 100u);

      RecoveryOptions recovery;
      recovery.fault_plan = svmmpi::FaultPlan{}.crash(1, total_ops / 2);
      recovery.checkpoint_interval = 32;
      RecoveryReport report;
      const TrainResult recovered =
          svmcore::train_with_recovery(train, fast_params, options, recovery, &report);

      EXPECT_EQ(report.restarts, 1);
      EXPECT_GT(report.checkpoints_saved, 0u);
      EXPECT_TRUE(recovered.converged);
      EXPECT_EQ(recovered.engine_backend, backend == EngineBackend::automatic
                                              ? resolved
                                              : svmkernel::to_string(backend));
      expect_bit_identical(recovered, baseline);
    }
  }
}

TEST(EngineParity, PredictionsAgreeAcrossBackends) {
  const ZooEntry& entry = svmdata::zoo_entry("usps");
  const Dataset train = svmdata::make_train(entry, 0.2);
  const Dataset test = svmdata::make_test(entry, 0.2);
  ASSERT_GT(test.size(), 0u);

  TrainOptions options;
  options.num_ranks = 2;
  const TrainResult model =
      svmcore::train(train, params_for(entry, EngineBackend::dense_scatter), options);
  ASSERT_TRUE(model.converged);

  // Engine-backed scoring (distributed predict path) vs the stateless
  // per-sample evaluation: identical decisions on every path, including the
  // simd RowStore path at f64 and the default engine.
  auto ref_engine = model.model.make_engine(EngineBackend::reference);
  auto fused_engine = model.model.make_engine(EngineBackend::dense_scatter);
  auto simd_engine = model.model.make_engine(EngineBackend::simd);
  auto default_engine = model.model.make_engine();
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double a = model.model.decision_value(test.X.row(i));
    EXPECT_EQ(a, model.model.decision_value(test.X.row(i), ref_engine)) << "sample " << i;
    EXPECT_EQ(a, model.model.decision_value(test.X.row(i), fused_engine)) << "sample " << i;
    EXPECT_EQ(a, model.model.decision_value(test.X.row(i), simd_engine)) << "sample " << i;
    EXPECT_EQ(a, model.model.decision_value(test.X.row(i), default_engine)) << "sample " << i;
  }
}

}  // namespace
