// KernelEngine: hand-computed values for every kernel type, the bitwise
// parity guarantee between the reference merge-join path and the fused
// dense_scatter and simd panel paths, and the `automatic` path rule. The
// parity is not approximate — EXPECT_EQ on doubles — because
// checkpoint/chaos recovery and the model-parity tests all assume the paths
// are interchangeable without changing a single bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "data/zoo.hpp"
#include "kernel/kernel_engine.hpp"

namespace {

using svmdata::CsrMatrix;
using svmdata::Dataset;
using svmdata::Feature;
using namespace svmkernel;

// Four tiny rows with known dot products:
//   r0 = (1, 0, 2, 0)    r1 = (0, 3, -1, 0)
//   r2 = (0.5, 0, 0, 4)  r3 = ()              (empty row)
CsrMatrix tiny_matrix() {
  CsrMatrix X;
  const std::vector<Feature> r0{{0, 1.0}, {2, 2.0}};
  const std::vector<Feature> r1{{1, 3.0}, {2, -1.0}};
  const std::vector<Feature> r2{{0, 0.5}, {3, 4.0}};
  const std::vector<Feature> r3{};
  X.add_row(r0);
  X.add_row(r1);
  X.add_row(r2);
  X.add_row(r3);
  return X;
}

// dot(ri, rj) for the tiny matrix, by hand.
constexpr double kDots[4][4] = {
    {5.0, -2.0, 0.5, 0.0},
    {-2.0, 10.0, 0.0, 0.0},
    {0.5, 0.0, 16.25, 0.0},
    {0.0, 0.0, 0.0, 0.0},
};

double finish(const KernelParams& p, double dot, double sq_a, double sq_b) {
  switch (p.type) {
    case KernelType::linear:
      return dot;
    case KernelType::rbf:
      return std::exp(-p.gamma * (sq_a + sq_b - 2.0 * dot));
    case KernelType::polynomial:
      return std::pow(p.gamma * dot + p.coef0, p.degree);
    case KernelType::sigmoid:
      return std::tanh(p.gamma * dot + p.coef0);
  }
  return 0.0;
}

KernelParams params_for(KernelType type) {
  KernelParams p;
  p.type = type;
  p.gamma = 0.5;
  p.coef0 = 1.0;
  p.degree = 3;
  return p;
}

struct Case {
  KernelType type;
  EngineBackend backend;
};

// Names each case by meaning in test names and failure messages.
void PrintTo(const Case& c, std::ostream* os) {
  *os << to_string(c.type) << "_" << to_string(c.backend);
}

class EngineHandComputedP : public ::testing::TestWithParam<Case> {};

TEST_P(EngineHandComputedP, PairRowsMatchHandComputedValues) {
  const CsrMatrix X = tiny_matrix();
  const KernelParams params = params_for(GetParam().type);
  const Kernel kernel(params);
  KernelEngine engine(kernel, X, GetParam().backend);

  const auto sq = X.row_squared_norms();
  ASSERT_EQ(sq.size(), 4u);
  EXPECT_DOUBLE_EQ(sq[0], 5.0);
  EXPECT_DOUBLE_EQ(sq[1], 10.0);
  EXPECT_DOUBLE_EQ(sq[2], 16.25);
  EXPECT_DOUBLE_EQ(sq[3], 0.0);

  const std::size_t up = 0, low = 1;
  std::vector<std::uint32_t> rows(4);
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<double> k_up(4), k_low(4);
  engine.eval_pair_rows(X.row(up), sq[up], X.row(low), sq[low], rows, 0, k_up, k_low);

  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(k_up[i], finish(params, kDots[up][i], sq[up], sq[i]))
        << to_string(GetParam().backend) << " row " << i;
    EXPECT_DOUBLE_EQ(k_low[i], finish(params, kDots[low][i], sq[low], sq[i]))
        << to_string(GetParam().backend) << " row " << i;
  }
}

TEST_P(EngineHandComputedP, EvalRowsMatchHandComputedValues) {
  const CsrMatrix X = tiny_matrix();
  const KernelParams params = params_for(GetParam().type);
  const Kernel kernel(params);
  KernelEngine engine(kernel, X, GetParam().backend);

  const auto sq = X.row_squared_norms();
  std::vector<double> out(4);
  engine.eval_rows(X.row(2), sq[2], 0, 4, out);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(out[i], finish(params, kDots[2][i], sq[2], sq[i]));
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllBackends, EngineHandComputedP,
    ::testing::Values(Case{KernelType::linear, EngineBackend::reference},
                      Case{KernelType::linear, EngineBackend::dense_scatter},
                      Case{KernelType::rbf, EngineBackend::reference},
                      Case{KernelType::rbf, EngineBackend::dense_scatter},
                      Case{KernelType::polynomial, EngineBackend::reference},
                      Case{KernelType::polynomial, EngineBackend::dense_scatter},
                      Case{KernelType::sigmoid, EngineBackend::reference},
                      Case{KernelType::sigmoid, EngineBackend::dense_scatter}),
    ::testing::PrintToStringParamName());

// --- bitwise backend parity on realistic data -------------------------------

class EngineParityP : public ::testing::TestWithParam<KernelType> {};

Dataset parity_dataset() {
  // Sparse, high-dimensional rows: the case where the scatter buffer sees
  // plenty of zero lanes (the +-0.0 identity the parity proof leans on).
  return svmdata::synthetic::sparse_binary(
      {.n = 64, .d = 512, .nnz_per_row = 24, .pool_overlap = 0.6, .seed = 9});
}

TEST_P(EngineParityP, PairRowsBitIdenticalAcrossBackends) {
  const Dataset d = parity_dataset();
  const Kernel kernel(params_for(GetParam()));
  KernelEngine ref(kernel, d.X, EngineBackend::reference);
  KernelEngine fused(kernel, d.X, EngineBackend::dense_scatter);

  const std::size_t n = d.size();
  // A strided active list, not just 0..n-1, and a few pair choices.
  std::vector<std::uint32_t> rows;
  for (std::size_t i = 0; i < n; i += 3) rows.push_back(static_cast<std::uint32_t>(i));
  std::vector<double> a_up(rows.size()), a_low(rows.size());
  std::vector<double> b_up(rows.size()), b_low(rows.size());

  for (const auto& [up, low] : {std::pair<std::size_t, std::size_t>{0, 1},
                                {5, 63}, {17, 42}}) {
    ref.eval_pair_rows(d.X.row(up), ref.sq_norm(up), d.X.row(low), ref.sq_norm(low), rows,
                       0, a_up, a_low);
    fused.eval_pair_rows(d.X.row(up), fused.sq_norm(up), d.X.row(low), fused.sq_norm(low),
                         rows, 0, b_up, b_low);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      EXPECT_EQ(a_up[k], b_up[k]) << "pair (" << up << "," << low << ") row " << rows[k];
      EXPECT_EQ(a_low[k], b_low[k]) << "pair (" << up << "," << low << ") row " << rows[k];
    }
  }
}

TEST_P(EngineParityP, EvalRowsAndRangeBitIdenticalAcrossBackends) {
  const Dataset d = parity_dataset();
  const Kernel kernel(params_for(GetParam()));
  KernelEngine ref(kernel, d.X, EngineBackend::reference);
  KernelEngine fused(kernel, d.X, EngineBackend::dense_scatter);

  const std::size_t n = d.size();
  std::vector<double> a(n), b(n);
  ref.eval_rows(d.X.row(7), ref.sq_norm(7), 0, n, a);
  fused.eval_rows(d.X.row(7), fused.sq_norm(7), 0, n, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(a[i], b[i]);

  // eval_pair_range == eval_pair_rows over the contiguous index list.
  std::vector<std::uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);
  std::vector<double> ru(n), rl(n), lu(n), ll(n);
  fused.eval_pair_rows(d.X.row(3), fused.sq_norm(3), d.X.row(9), fused.sq_norm(9), all, 0,
                       ru, rl);
  fused.eval_pair_range(d.X.row(3), fused.sq_norm(3), d.X.row(9), fused.sq_norm(9), 0, n,
                        lu, ll);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ru[i], lu[i]);
    EXPECT_EQ(rl[i], ll[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernels, EngineParityP,
                         ::testing::Values(KernelType::linear, KernelType::rbf,
                                           KernelType::polynomial, KernelType::sigmoid),
                         [](const auto& param_info) { return to_string(param_info.param); });

// --- distributed-slice engines ----------------------------------------------

TEST(KernelEngineTest, SliceEngineMatchesFullEngineOnItsRange) {
  const Dataset d = parity_dataset();
  const Kernel kernel(params_for(KernelType::rbf));
  KernelEngine full(kernel, d.X, EngineBackend::dense_scatter);
  const std::size_t begin = 16, end = 48;
  KernelEngine slice(kernel, d.X, EngineBackend::dense_scatter, begin, end);

  for (std::size_t i = begin; i < end; ++i)
    EXPECT_EQ(slice.sq_norm(i), full.sq_norm(i));

  // rows[] carries LOCAL offsets with base = begin, as run_phase uses it.
  std::vector<std::uint32_t> local(end - begin);
  std::iota(local.begin(), local.end(), 0u);
  std::vector<double> su(local.size()), sl(local.size());
  std::vector<double> fu(d.size()), fl(d.size());
  slice.eval_pair_rows(d.X.row(0), full.sq_norm(0), d.X.row(1), full.sq_norm(1), local,
                       begin, su, sl);
  full.eval_pair_range(d.X.row(0), full.sq_norm(0), d.X.row(1), full.sq_norm(1), 0,
                       d.size(), fu, fl);
  for (std::size_t k = 0; k < local.size(); ++k) {
    EXPECT_EQ(su[k], fu[begin + k]);
    EXPECT_EQ(sl[k], fl[begin + k]);
  }
}

// --- cached float rows -------------------------------------------------------

TEST(KernelEngineTest, KRowFloatsMatchesUnscaledKernelValues) {
  const Dataset d = parity_dataset();
  const Kernel kernel(params_for(KernelType::rbf));
  KernelEngine engine(kernel, d.X, EngineBackend::dense_scatter, /*cache_budget_bytes=*/1 << 20);
  KernelEngine ref(kernel, d.X, EngineBackend::reference);

  const std::size_t n = d.size();
  const std::span<const float> row = engine.k_row_floats(5, n);
  ASSERT_EQ(row.size(), n);
  for (std::size_t j = 0; j < n; ++j) {
    const double kij = ref.eval_one(d.X.row(5), d.X.row(j), ref.sq_norm(5), ref.sq_norm(j));
    EXPECT_EQ(row[j], static_cast<float>(kij)) << "col " << j;
  }

  // A second fetch of the same row is a cache hit with identical contents.
  const std::span<const float> again = engine.k_row_floats(5, n);
  for (std::size_t j = 0; j < n; ++j) EXPECT_EQ(row[j], again[j]);
  EXPECT_GT(engine.cache_hit_rate(), 0.0);
}

TEST(KernelEngineTest, KRowFloatsAppliesRowScaleLikeLibsvm) {
  const Dataset d = parity_dataset();
  const Kernel kernel(params_for(KernelType::rbf));
  KernelEngine engine(kernel, d.X, EngineBackend::dense_scatter, 1 << 20);
  engine.set_row_scale(d.y);
  KernelEngine ref(kernel, d.X, EngineBackend::reference);

  const std::size_t n = d.size();
  const std::span<const float> row = engine.k_row_floats(3, n);
  for (std::size_t j = 0; j < n; ++j) {
    const double kij = ref.eval_one(d.X.row(3), d.X.row(j), ref.sq_norm(3), ref.sq_norm(j));
    EXPECT_EQ(row[j], static_cast<float>(d.y[3] * d.y[j] * kij)) << "col " << j;
  }
}

TEST(KernelEngineTest, RowsStayCorrectUnderEvictionPressure) {
  // Budget fits exactly one row, so every alternating fetch goes through the
  // miss -> fill -> insert -> re-lookup path with eviction in play; the pin
  // keeps each returned span valid until the next call (the generic SMO
  // contract: copy the first row of a pair before fetching the second).
  const Dataset d = parity_dataset();
  const Kernel kernel(params_for(KernelType::rbf));
  const std::size_t n = d.size();
  KernelEngine engine(kernel, d.X, EngineBackend::dense_scatter, n * sizeof(float));
  KernelEngine ref(kernel, d.X, EngineBackend::reference);

  for (const std::size_t i : {2u, 8u, 2u, 8u, 5u}) {
    const std::span<const float> row = engine.k_row_floats(i, n);
    const std::vector<float> copy(row.begin(), row.end());
    for (std::size_t j = 0; j < n; ++j) {
      const double kij =
          ref.eval_one(d.X.row(i), d.X.row(j), ref.sq_norm(i), ref.sq_norm(j));
      EXPECT_EQ(copy[j], static_cast<float>(kij)) << "row " << i << " col " << j;
    }
  }
}

// --- counters ----------------------------------------------------------------

TEST(KernelEngineTest, StatsCountBatchedWork) {
  const CsrMatrix X = tiny_matrix();
  const Kernel kernel(params_for(KernelType::rbf));
  KernelEngine engine(kernel, X, EngineBackend::dense_scatter);

  const auto sq = X.row_squared_norms();
  std::vector<std::uint32_t> rows{0, 1, 2, 3};
  std::vector<double> u(4), l(4);
  engine.eval_pair_rows(X.row(0), sq[0], X.row(1), sq[1], rows, 0, u, l);
  EXPECT_EQ(engine.stats().pair_evals, 4u);
  EXPECT_EQ(engine.stats().scatter_builds, 2u);  // one per query lane
  // r0 (2 nnz) + r1 (2) + r2 (2) + r3 (0) = 6 features streamed.
  EXPECT_EQ(engine.stats().bytes_streamed, 6 * sizeof(Feature));

  std::vector<double> out(4);
  engine.eval_rows(X.row(2), sq[2], 0, 4, out);
  EXPECT_EQ(engine.stats().single_evals, 4u);
  EXPECT_EQ(engine.stats().scatter_builds, 3u);

  // The work metric matches the unbatched code: each produced value counts
  // as one Kernel evaluation regardless of backend.
  EXPECT_EQ(engine.kernel().evaluations(), 12u);
}

TEST(KernelEngineTest, BlockRowsSimdPanelBitIdenticalToReference) {
  // The reference backend's eval_block_rows is the serial reconstruction
  // ring's per-stale-sample loop. Every other backend must land on exactly
  // its bits: the simd panel branch and both dense_scatter orientations —
  // same finish_from_dot funnel, same ascending accumulation order, f64
  // resident rows.
  svmdata::synthetic::BlobsParams bp;
  bp.n = 37;  // not a multiple of the panel width: exercises the tail panel
  bp.d = 12;
  bp.seed = 9;
  const Dataset data = svmdata::synthetic::gaussian_blobs(bp);
  const CsrMatrix& X = data.X;
  const std::vector<double> sq = X.row_squared_norms();

  // A remote ring sample wider than this rank's matrix: its feature beyond
  // X.cols() cannot intersect any stale row, so every backend skips it.
  std::vector<Feature> wide(X.row(5).begin(), X.row(5).end());
  wide.push_back(Feature{static_cast<std::int32_t>(X.cols()) + 10, 3.0});
  const std::vector<std::span<const Feature>> block{X.row(0), wide, X.row(11)};
  const std::vector<double> block_sq{sq[0], sq[5] + 9.0, sq[11]};
  const std::vector<double> block_coeffs{0.75, -1.25, 0.5};

  // Stale sets on both sides of the adaptive orientation: every row (block
  // <= stale, the block rows are scattered) and two rows (block > stale,
  // the stale rows are scattered).
  std::vector<std::uint32_t> all_rows(X.rows());
  std::iota(all_rows.begin(), all_rows.end(), 0u);
  const std::vector<std::vector<std::uint32_t>> stale_sets{all_rows, {4, 30}};

  for (const KernelType type : {KernelType::rbf, KernelType::linear}) {
    const Kernel kernel(params_for(type));
    KernelEngine ref(kernel, X, EngineBackend::reference);
    for (const std::vector<std::uint32_t>& rows : stale_sets) {
      std::vector<double> expect(rows.size(), 0.25);
      ref.eval_block_rows(block, block_sq, block_coeffs, rows, 0, expect);
      for (const EngineBackend backend : {EngineBackend::dense_scatter, EngineBackend::simd}) {
        SCOPED_TRACE(to_string(type) + " " + to_string(backend) + " stale=" +
                     std::to_string(rows.size()));
        KernelEngine engine(kernel, X, backend, 0, RowFlavor::f64);
        std::vector<double> got(rows.size(), 0.25);
        engine.eval_block_rows(block, block_sq, block_coeffs, rows, 0, got);
        for (std::size_t w = 0; w < rows.size(); ++w)
          EXPECT_EQ(got[w], expect[w]) << "stale row " << rows[w];
      }
    }
  }
}

TEST(KernelEngineTest, BatchPredictMatchesAccumulateRowsAcrossBackends) {
  // Serving micro-batch form: out[q] must be bitwise what a per-query
  // accumulate_rows returns, on every backend.
  svmdata::synthetic::BlobsParams bp;
  bp.n = 24;
  bp.d = 10;
  bp.seed = 4;
  const Dataset data = svmdata::synthetic::gaussian_blobs(bp);
  const CsrMatrix& X = data.X;
  const std::vector<double> sq = X.row_squared_norms();
  std::vector<double> coeffs(X.rows());
  for (std::size_t j = 0; j < coeffs.size(); ++j)
    coeffs[j] = (j % 2 == 0 ? 1.0 : -1.0) * (0.25 + 0.01 * static_cast<double>(j));

  const Kernel kernel(params_for(KernelType::rbf));
  KernelEngine ref(kernel, X, EngineBackend::reference);
  const std::vector<std::span<const Feature>> queries{X.row(1), X.row(7), X.row(23), X.row(7)};
  const std::vector<double> query_sq{sq[1], sq[7], sq[23], sq[7]};

  for (const EngineBackend backend :
       {EngineBackend::reference, EngineBackend::dense_scatter, EngineBackend::simd}) {
    SCOPED_TRACE(to_string(backend));
    KernelEngine engine(kernel, X, backend);
    std::vector<double> out(queries.size());
    engine.eval_block_rows(queries, query_sq, coeffs, out);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(out[q], ref.accumulate_rows(queries[q], query_sq[q], coeffs)) << "query " << q;
    }
  }
}

TEST(KernelEngineTest, BackendNamesRoundTrip) {
  for (const EngineBackend b : {EngineBackend::reference, EngineBackend::dense_scatter,
                                EngineBackend::automatic, EngineBackend::simd})
    EXPECT_EQ(engine_backend_from_string(to_string(b)), b);
  EXPECT_THROW((void)engine_backend_from_string("warp_drive"), std::invalid_argument);
}

TEST(KernelEngineTest, AutomaticTakesPanelsOnDenseRowsAndScatterOnSparseRows) {
  // The two shapes the benchmark's workloads train on: higgs rows are dense
  // (density 1.0), url rows are sparse (density 0.001).
  const Kernel kernel(params_for(KernelType::rbf));
  const Dataset higgs = svmdata::make_train(svmdata::zoo_entry("higgs"), 0.05);
  const Dataset url = svmdata::make_train(svmdata::zoo_entry("url"), 0.05);
  ASSERT_GE(higgs.X.density(), kPanelDensity);
  ASSERT_LT(url.X.density(), kPanelDensity);
  EXPECT_EQ(KernelEngine(kernel, higgs.X, EngineBackend::automatic).backend(),
            EngineBackend::simd);
  EXPECT_EQ(KernelEngine(kernel, url.X, EngineBackend::automatic).backend(),
            EngineBackend::dense_scatter);
  // A distributed rank's engine decides from its own block, and the panels
  // cover exactly that block.
  const std::size_t half = higgs.size() / 2;
  const KernelEngine block(kernel, higgs.X, EngineBackend::automatic, half, higgs.size());
  EXPECT_EQ(block.backend(), EngineBackend::simd);
  EXPECT_GT(block.store_bytes(), 0u);
  EXPECT_EQ(KernelEngine(kernel, url.X, EngineBackend::automatic, 0, url.size()).store_bytes(),
            0u);
  // A reduced flavor lives in the panels, whatever the density; an empty
  // block has nothing to panel.
  EXPECT_EQ(KernelEngine(kernel, url.X, EngineBackend::automatic, 0, 16, 0, RowFlavor::f32)
                .backend(),
            EngineBackend::simd);
  EXPECT_EQ(KernelEngine(kernel, higgs.X, EngineBackend::automatic, 5, 5).backend(),
            EngineBackend::dense_scatter);
  // The forced paths are never re-resolved.
  EXPECT_EQ(KernelEngine(kernel, higgs.X, EngineBackend::dense_scatter).backend(),
            EngineBackend::dense_scatter);
  EXPECT_EQ(KernelEngine(kernel, url.X, EngineBackend::simd, 0, 16).backend(),
            EngineBackend::simd);
}

// --- single-query rows on every path ----------------------------------------

constexpr EngineBackend kEveryPath[] = {EngineBackend::reference, EngineBackend::dense_scatter,
                                        EngineBackend::simd, EngineBackend::automatic};

TEST(RowEval, SubrangeOffsets) {
  const Dataset d =
      svmdata::synthetic::gaussian_blobs({.n = 30, .d = 6, .separation = 2.0, .seed = 17});
  const Kernel kernel(params_for(KernelType::rbf));
  const auto sq = d.X.row_squared_norms();
  const auto query = d.X.row(0);
  for (const EngineBackend path : kEveryPath) {
    SCOPED_TRACE(to_string(path));
    KernelEngine engine(kernel, d.X, path);
    std::vector<double> out(5);
    engine.eval_rows(query, sq[0], 10, 15, out);
    for (std::size_t k = 0; k < 5; ++k)
      EXPECT_EQ(out[k], kernel.eval(d.X.row(10 + k), query, sq[10 + k], sq[0]));
  }
}

}  // namespace
