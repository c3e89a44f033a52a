#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/multiclass.hpp"
#include "core/sequential_smo.hpp"
#include "core/trainer.hpp"
#include "data/split.hpp"
#include "data/synthetic.hpp"

namespace {

using svmcore::MulticlassModel;
using svmcore::SvmModel;
using svmdata::Dataset;
using svmdata::Feature;
using svmkernel::KernelParams;
using svmkernel::KernelType;

SvmModel trained_model() {
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 120, .d = 5, .separation = 2.5, .seed = 31});
  svmcore::SolverParams p;
  p.C = 10.0;
  p.eps = 1e-3;
  p.kernel = KernelParams::rbf_with_sigma_sq(4.0);
  const auto r = svmcore::solve_sequential(d, p);
  return svmcore::build_model(d, r.alpha, r.beta, p.kernel);
}

TEST(Model, TrainsAndClassifiesItsOwnData) {
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 120, .d = 5, .separation = 2.5, .seed = 31});
  const SvmModel model = trained_model();
  EXPECT_GT(model.num_support_vectors(), 0u);
  EXPECT_LT(model.num_support_vectors(), d.size());  // not everything is a SV
  EXPECT_GT(model.accuracy(d), 0.97);
}

TEST(Model, GeneralizesToHeldOutDraw) {
  const Dataset test = svmdata::synthetic::gaussian_blobs(
      {.n = 200, .d = 5, .separation = 2.5, .seed = 31, .draw = 1});  // same concept, new draw
  // Separation 2.5 puts the Bayes accuracy near Phi(1.25) ~ 0.89; a model
  // fit on 120 samples should land well above chance but below that.
  EXPECT_GT(trained_model().accuracy(test), 0.78);
}

TEST(Model, DecisionValueSignMatchesPredict) {
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 50, .d = 5, .separation = 2.5, .seed = 33});
  const SvmModel model = trained_model();
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double f = model.decision_value(d.X.row(i));
    EXPECT_EQ(model.predict(d.X.row(i)), f >= 0 ? 1.0 : -1.0);
  }
}

TEST(Model, PredictAllParallelMatchesSerial) {
  const Dataset d = svmdata::synthetic::gaussian_blobs(
      {.n = 64, .d = 5, .separation = 2.5, .seed = 34});
  const SvmModel model = trained_model();
  std::vector<double> serial;
  for (std::size_t i = 0; i < d.size(); ++i) serial.push_back(model.predict(d.X.row(i)));
  EXPECT_EQ(model.predict_all(d.X), serial);
}

TEST(Model, SaveLoadRoundTripExact) {
  const SvmModel model = trained_model();
  std::ostringstream out;
  model.save(out);
  std::istringstream in(out.str());
  const SvmModel loaded = SvmModel::load(in);

  EXPECT_EQ(loaded.num_support_vectors(), model.num_support_vectors());
  EXPECT_EQ(loaded.beta(), model.beta());
  EXPECT_EQ(loaded.kernel_params().type, model.kernel_params().type);
  EXPECT_EQ(loaded.kernel_params().gamma, model.kernel_params().gamma);
  for (std::size_t j = 0; j < model.num_support_vectors(); ++j)
    EXPECT_EQ(loaded.coefficients()[j], model.coefficients()[j]);

  // Decision values must be bitwise identical after the round trip.
  const Dataset probe = svmdata::synthetic::gaussian_blobs(
      {.n = 20, .d = 5, .separation = 2.5, .seed = 35});
  for (std::size_t i = 0; i < probe.size(); ++i)
    EXPECT_EQ(loaded.decision_value(probe.X.row(i)), model.decision_value(probe.X.row(i)));
}

TEST(Model, SaveLoadFileRoundTrip) {
  const SvmModel model = trained_model();
  const std::string path = ::testing::TempDir() + "/model.shrinksvm";
  model.save_file(path);
  const SvmModel loaded = SvmModel::load_file(path);
  EXPECT_EQ(loaded.num_support_vectors(), model.num_support_vectors());
}

// Normal doubles at the edge of the 17-significant-digit model format:
// values near +-1e-05 that print all 17 digits (the first three fill the
// header, which once overflowed a fixed buffer and lost beta's exponent),
// +-DBL_MAX, DBL_MIN and -0.0.
const std::vector<double> kExtremes{
    -1.2345678901234568e-05, 1.2345678901234568e-05, -9.8765432109876557e-06,
    std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
    std::numeric_limits<double>::min(), -0.0};

/// A polynomial model whose header and body hold every extreme value.
SvmModel extreme_model() {
  KernelParams kernel;
  kernel.type = KernelType::polynomial;
  kernel.gamma = kExtremes[1];
  kernel.coef0 = kExtremes[2];
  svmdata::CsrMatrix sv;
  std::vector<double> coefficients;
  for (std::size_t j = 0; j < kExtremes.size(); ++j) {
    sv.add_row(std::vector<Feature>{{static_cast<std::int32_t>(j), kExtremes[j]}});
    coefficients.push_back(kExtremes[kExtremes.size() - 1 - j]);
  }
  return SvmModel(kernel, std::move(sv), std::move(coefficients), kExtremes[0]);
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Every value a model file carries, as raw bits, in file order.
std::vector<std::uint64_t> model_bits(const SvmModel& m) {
  const KernelParams& k = m.kernel_params();
  std::vector<std::uint64_t> out{static_cast<std::uint64_t>(k.type), bits(k.gamma), bits(k.coef0),
                                 static_cast<std::uint64_t>(k.degree), bits(m.beta())};
  for (std::size_t j = 0; j < m.num_support_vectors(); ++j) {
    out.push_back(bits(m.coefficients()[j]));
    for (const Feature& f : m.support_vectors().row(j)) {
      out.push_back(static_cast<std::uint64_t>(f.index));
      out.push_back(bits(f.value));
    }
  }
  return out;
}

TEST(Model, SaveLoadRoundTripsExtremeDoublesBitwise) {
  const SvmModel model = extreme_model();
  const std::string path = ::testing::TempDir() + "/extreme.shrinksvm";
  model.save_file(path);
  EXPECT_EQ(model_bits(SvmModel::load_file(path)), model_bits(model));
}

TEST(Model, MulticlassSaveLoadRoundTripsExtremeDoublesBitwise) {
  const std::vector<double> classes{kExtremes[0], kExtremes[3], kExtremes[5]};
  const MulticlassModel model(classes, {extreme_model(), extreme_model(), extreme_model()});
  const std::string path = ::testing::TempDir() + "/extreme.multiclass";
  model.save_file(path);
  const MulticlassModel loaded = MulticlassModel::load_file(path);
  ASSERT_EQ(loaded.num_classes(), classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c)
    EXPECT_EQ(bits(loaded.classes()[c]), bits(classes[c])) << "class " << c;
  ASSERT_EQ(loaded.machines().size(), 3u);
  for (const SvmModel& machine : loaded.machines())
    EXPECT_EQ(model_bits(machine), model_bits(model.machines()[0]));
}

TEST(Model, LoadRejectsWrongMagic) {
  std::istringstream in("not-a-model\n");
  EXPECT_THROW((void)SvmModel::load(in), std::runtime_error);
}

TEST(Model, LoadRejectsTruncatedBody) {
  const SvmModel model = trained_model();
  std::ostringstream out;
  model.save(out);
  std::string text = out.str();
  text.resize(text.size() / 2);
  std::istringstream in(text);
  EXPECT_THROW((void)SvmModel::load(in), std::runtime_error);
}

TEST(Model, CoefficientCountMismatchThrows) {
  svmdata::CsrMatrix sv;
  sv.add_row(std::vector<Feature>{{0, 1.0}});
  EXPECT_THROW(SvmModel(KernelParams{}, std::move(sv), {0.5, 0.5}, 0.0),
               std::invalid_argument);
}

TEST(Model, EmptyModelPredictsFromBetaAlone) {
  const SvmModel model(KernelParams{}, svmdata::CsrMatrix{}, {}, -1.0);
  svmdata::CsrMatrix probe;
  probe.add_row(std::vector<Feature>{{0, 1.0}});
  EXPECT_DOUBLE_EQ(model.decision_value(probe.row(0)), 1.0);  // 0 - (-1)
}

}  // namespace
