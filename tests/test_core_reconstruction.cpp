// Gradient-reconstruction properties (Algorithm 3). The strongest check is
// indirect but exact: after any shrinking solve completes, the FULL-dataset
// KKT gap (recomputed from scratch, all gammas rebuilt) must satisfy the
// Eq. (5) stopping criterion — which can only hold if reconstruction
// restored the gradients of falsely-eliminated samples correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "core/objective.hpp"
#include "core/sample_block.hpp"
#include "core/trainer.hpp"
#include "data/synthetic.hpp"

namespace {

using svmcore::Heuristic;
using svmcore::PackedSamples;
using svmcore::SolverParams;
using svmcore::TrainOptions;
using svmdata::Dataset;
using svmdata::Feature;
using svmkernel::KernelParams;

SolverParams solver_params() {
  SolverParams p;
  p.C = 8.0;
  p.eps = 1e-3;
  p.kernel = KernelParams::rbf_with_sigma_sq(4.0);
  return p;
}

struct Case {
  const char* heuristic;
  int ranks;
};

/// Names the case by meaning, e.g. "Multi5pc_r2": raw struct bytes would
/// embed a string pointer that changes on every test discovery.
void PrintTo(const Case& c, std::ostream* os) { *os << c.heuristic << "_r" << c.ranks; }

class ReconstructionP : public ::testing::TestWithParam<Case> {};

TEST_P(ReconstructionP, FullDatasetKktGapHoldsAfterSolve) {
  const Dataset train = svmdata::synthetic::gaussian_blobs(
      {.n = 180, .d = 5, .separation = 1.5, .label_noise = 0.1, .seed = 61});
  const SolverParams params = solver_params();

  TrainOptions options;
  options.num_ranks = GetParam().ranks;
  options.heuristic = Heuristic::parse(GetParam().heuristic);
  const auto result = svmcore::train(train, params, options);
  ASSERT_TRUE(result.converged);

  // Recover the full alpha vector from the model: every SV coefficient is
  // alpha*y, and non-SV alphas are zero. Walk the dataset rows in order;
  // support vectors preserve dataset order in build_model.
  std::vector<double> alpha(train.size(), 0.0);
  const auto& svs = result.model.support_vectors();
  std::size_t sv_cursor = 0;
  for (std::size_t i = 0; i < train.size() && sv_cursor < svs.rows(); ++i) {
    const auto row = train.X.row(i);
    const auto sv = svs.row(sv_cursor);
    if (row.size() == sv.size() &&
        std::equal(row.begin(), row.end(), sv.begin(), [](const Feature& a, const Feature& b) {
          return a.index == b.index && a.value == b.value;
        })) {
      alpha[i] = result.model.coefficients()[sv_cursor] * train.y[i];  // alpha = coef*y, y^2=1
      ++sv_cursor;
    }
  }
  ASSERT_EQ(sv_cursor, svs.rows()) << "could not align SVs to dataset rows";

  const svmcore::KktReport report = svmcore::kkt_report(train, alpha, params);
  EXPECT_LE(report.gap, 2.0 * params.eps + 1e-6)
      << GetParam().heuristic << " p=" << GetParam().ranks;
  EXPECT_LE(report.max_alpha_bound_violation, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReconstructionP,
                         ::testing::Values(Case{"Single2", 1}, Case{"Single2", 4},
                                           Case{"Single5pc", 3}, Case{"Multi2", 1},
                                           Case{"Multi2", 4}, Case{"Multi5pc", 2},
                                           Case{"Multi10pc", 5}, Case{"Single1000", 2}),
                         ::testing::PrintToStringParamName());

TEST(PackedSamplesT, PackUnpackRoundTrip) {
  PackedSamples block;
  block.add(7, 1.0, 0.5, 2.25, std::vector<Feature>{{0, 1.5}, {3, -2.0}});
  block.add(19, -1.0, 0.0, 0.0, std::vector<Feature>{});
  block.add(23, -1.0, 8.0, 1.0, std::vector<Feature>{{1, 1.0}});

  const auto bytes = block.pack();
  EXPECT_EQ(bytes.size(), block.packed_bytes());
  const PackedSamples loaded = PackedSamples::unpack(bytes);

  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.global_index(0), 7);
  EXPECT_EQ(loaded.global_index(2), 23);
  EXPECT_DOUBLE_EQ(loaded.y(0), 1.0);
  EXPECT_DOUBLE_EQ(loaded.alpha(2), 8.0);
  EXPECT_DOUBLE_EQ(loaded.sq_norm(0), 2.25);
  ASSERT_EQ(loaded.row(0).size(), 2u);
  EXPECT_EQ(loaded.row(0)[1].index, 3);
  EXPECT_TRUE(loaded.row(1).empty());
  ASSERT_EQ(loaded.row(2).size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.row(2)[0].value, 1.0);
}

TEST(PackedSamplesT, EmptyBlockRoundTrip) {
  const PackedSamples block;
  const PackedSamples loaded = PackedSamples::unpack(block.pack());
  EXPECT_TRUE(loaded.empty());
}

TEST(PackedSamplesT, UnpackRejectsTruncation) {
  PackedSamples block;
  block.add(1, 1.0, 0.1, 1.0, std::vector<Feature>{{0, 1.0}});
  auto bytes = block.pack();
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW((void)PackedSamples::unpack(bytes), std::runtime_error);
}

TEST(PackedSamplesT, UnpackRejectsTrailingBytes) {
  PackedSamples block;
  block.add(1, 1.0, 0.1, 1.0, std::vector<Feature>{{0, 1.0}});
  auto bytes = block.pack();
  bytes.resize(bytes.size() + 8);
  EXPECT_THROW((void)PackedSamples::unpack(bytes), std::runtime_error);
}

TEST(Reconstruction, RingVolumeScalesWithAlphaSupport) {
  // Reconstruction traffic must be proportional to the alpha>0 samples, far
  // below moving the whole dataset p times.
  const Dataset train = svmdata::synthetic::gaussian_blobs(
      {.n = 300, .d = 6, .separation = 2.5, .label_noise = 0.02, .seed = 62});
  const SolverParams params = solver_params();

  TrainOptions no_shrink;
  no_shrink.num_ranks = 4;
  TrainOptions shrink;
  shrink.num_ranks = 4;
  shrink.heuristic = Heuristic::parse("Multi5pc");

  const auto base = svmcore::train(train, params, no_shrink);
  const auto shrunk = svmcore::train(train, params, shrink);
  EXPECT_GT(shrunk.reconstructions, 0u);
  // The shrinking run sends the ring blocks on top of per-iteration traffic,
  // but executes far fewer gamma updates; its total traffic stays within a
  // small multiple of the Original's.
  EXPECT_LT(shrunk.traffic.bytes_sent, 4 * base.traffic.bytes_sent + (1 << 20));
}

}  // namespace
