#include <gtest/gtest.h>

#include "core/distributed_predict.hpp"
#include "core/metrics.hpp"
#include "core/sequential_smo.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"
#include "mpisim/spmd.hpp"

namespace {

using svmcore::ConfusionMatrix;
using svmcore::confusion;

TEST(Confusion, CountsAllFourQuadrants) {
  const std::vector<double> predicted{1, 1, -1, -1, 1, -1};
  const std::vector<double> actual{1, -1, -1, 1, 1, -1};
  const ConfusionMatrix m = confusion(predicted, actual);
  EXPECT_EQ(m.true_positive, 2u);
  EXPECT_EQ(m.false_positive, 1u);
  EXPECT_EQ(m.false_negative, 1u);
  EXPECT_EQ(m.true_negative, 2u);
  EXPECT_EQ(m.total(), 6u);
}

TEST(Confusion, LengthMismatchThrows) {
  EXPECT_THROW((void)confusion(std::vector<double>{1.0}, std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(Confusion, MetricsMatchHandComputation) {
  ConfusionMatrix m;
  m.true_positive = 8;
  m.false_positive = 2;
  m.false_negative = 4;
  m.true_negative = 6;
  EXPECT_DOUBLE_EQ(m.accuracy(), 14.0 / 20.0);
  EXPECT_DOUBLE_EQ(m.precision(), 8.0 / 10.0);
  EXPECT_DOUBLE_EQ(m.recall(), 8.0 / 12.0);
  const double p = 0.8;
  const double r = 8.0 / 12.0;
  EXPECT_DOUBLE_EQ(m.f1(), 2 * p * r / (p + r));
  EXPECT_GT(m.matthews(), 0.0);
  EXPECT_LT(m.matthews(), 1.0);
}

TEST(Confusion, PerfectClassifierEdges) {
  ConfusionMatrix m;
  m.true_positive = 5;
  m.true_negative = 5;
  EXPECT_DOUBLE_EQ(m.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(m.precision(), 1.0);
  EXPECT_DOUBLE_EQ(m.recall(), 1.0);
  EXPECT_DOUBLE_EQ(m.f1(), 1.0);
  EXPECT_DOUBLE_EQ(m.matthews(), 1.0);
}

TEST(Confusion, DegenerateAllNegativePredictions) {
  ConfusionMatrix m;
  m.true_negative = 6;
  m.false_negative = 4;
  EXPECT_DOUBLE_EQ(m.precision(), 0.0);  // no positive predictions
  EXPECT_DOUBLE_EQ(m.recall(), 0.0);
  EXPECT_DOUBLE_EQ(m.f1(), 0.0);
  EXPECT_DOUBLE_EQ(m.matthews(), 0.0);
}

TEST(Confusion, EmptyMatrixIsZero) {
  const ConfusionMatrix m;
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.0);
  EXPECT_EQ(m.total(), 0u);
}

TEST(Confusion, ReportContainsAllFields) {
  ConfusionMatrix m;
  m.true_positive = 3;
  m.true_negative = 3;
  m.false_positive = 2;
  m.false_negative = 2;
  const std::string report = svmcore::classification_report(m);
  for (const char* field : {"accuracy", "precision", "recall", "f1", "mcc", "TP=3"})
    EXPECT_NE(report.find(field), std::string::npos) << field;
}

class DistributedPredictP : public ::testing::TestWithParam<int> {};

TEST_P(DistributedPredictP, MatchesSerialEvaluation) {
  const auto train = svmdata::synthetic::gaussian_blobs(
      {.n = 150, .d = 5, .separation = 2.0, .label_noise = 0.05, .seed = 81});
  const auto test = svmdata::synthetic::gaussian_blobs(
      {.n = 90, .d = 5, .separation = 2.0, .seed = 81, .draw = 1});
  svmcore::SolverParams params;
  params.C = 4.0;
  params.eps = 1e-3;
  params.kernel = svmkernel::KernelParams::rbf_with_sigma_sq(4.0);
  const auto result = svmcore::train(train, params, {});
  const auto& model = result.model;

  // Serial reference.
  const auto serial = svmcore::confusion(model.predict_all(test.X), test.y);

  // Distributed evaluation on GetParam() ranks.
  std::vector<ConfusionMatrix> per_rank(GetParam());
  svmmpi::run_spmd(GetParam(), [&](svmmpi::Comm& comm) {
    per_rank[comm.rank()] = svmcore::distributed_evaluate(comm, model, test);
  });
  for (const ConfusionMatrix& m : per_rank) {
    EXPECT_EQ(m.true_positive, serial.true_positive);
    EXPECT_EQ(m.true_negative, serial.true_negative);
    EXPECT_EQ(m.false_positive, serial.false_positive);
    EXPECT_EQ(m.false_negative, serial.false_negative);
  }

  // Accuracy helper agrees too.
  std::vector<double> accuracy(GetParam());
  svmmpi::run_spmd(GetParam(), [&](svmmpi::Comm& comm) {
    accuracy[comm.rank()] = svmcore::distributed_accuracy(comm, model, test);
  });
  for (const double a : accuracy) EXPECT_DOUBLE_EQ(a, serial.accuracy());
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedPredictP, ::testing::Values(1, 2, 3, 5));

}  // namespace
