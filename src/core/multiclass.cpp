#include "core/multiclass.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/trainer.hpp"

namespace svmcore {

MulticlassModel::MulticlassModel(std::vector<double> classes, std::vector<SvmModel> pairwise)
    : classes_(std::move(classes)), pairwise_(std::move(pairwise)) {
  const std::size_t k = classes_.size();
  if (pairwise_.size() != k * (k - 1) / 2)
    throw std::invalid_argument("MulticlassModel: need k(k-1)/2 pairwise machines");
}

double MulticlassModel::predict(std::span<const svmdata::Feature> x) const {
  const std::size_t k = classes_.size();
  std::vector<int> votes(k, 0);
  std::vector<double> margin(k, 0.0);
  std::size_t machine = 0;
  for (std::size_t a = 0; a < k; ++a) {
    for (std::size_t b = a + 1; b < k; ++b, ++machine) {
      const double decision = pairwise_[machine].decision_value(x);
      const std::size_t winner = decision >= 0.0 ? a : b;
      ++votes[winner];
      margin[winner] += std::abs(decision);
    }
  }
  std::size_t best = 0;
  for (std::size_t c = 1; c < k; ++c) {
    if (votes[c] > votes[best] || (votes[c] == votes[best] && margin[c] > margin[best]))
      best = c;
  }
  return classes_[best];
}

std::vector<double> MulticlassModel::predict_all(const svmdata::CsrMatrix& X) const {
  std::vector<double> out(X.rows());
  const auto n = static_cast<std::ptrdiff_t>(X.rows());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < n; ++i)
    out[static_cast<std::size_t>(i)] = predict(X.row(static_cast<std::size_t>(i)));
  return out;
}

double MulticlassModel::accuracy(const MulticlassDataset& test) const {
  if (test.size() == 0) return 0.0;
  const auto predicted = predict_all(test.X);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    if (predicted[i] == test.labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

namespace {
constexpr char kMagic[] = "shrinksvm-multiclass-v1";
}

void MulticlassModel::save(std::ostream& out) const {
  out << kMagic << '\n';
  const std::ios_base::fmtflags flags = out.flags(std::ios_base::dec);
  const std::streamsize precision = out.precision(17);  // as SvmModel::save
  out << "classes " << classes_.size();
  for (const double c : classes_) out << ' ' << c;
  out << '\n';
  out.flags(flags);
  out.precision(precision);
  for (const SvmModel& model : pairwise_) model.save(out);
}

void MulticlassModel::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("MulticlassModel::save_file: cannot open " + path);
  save(out);
}

MulticlassModel MulticlassModel::load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    throw std::runtime_error("MulticlassModel::load: bad magic");
  std::string key;
  std::size_t k = 0;
  if (!(in >> key >> k) || key != "classes")
    throw std::runtime_error("MulticlassModel::load: missing class list");
  std::vector<double> classes(k);
  for (double& c : classes)
    if (!(in >> c)) throw std::runtime_error("MulticlassModel::load: truncated class list");
  std::getline(in, line);
  std::vector<SvmModel> pairwise;
  pairwise.reserve(k * (k - 1) / 2);
  for (std::size_t m = 0; m < k * (k - 1) / 2; ++m) pairwise.push_back(SvmModel::load(in));
  return MulticlassModel(std::move(classes), std::move(pairwise));
}

MulticlassModel MulticlassModel::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("MulticlassModel::load_file: cannot open " + path);
  return load(in);
}

MulticlassModel train_one_vs_one(const MulticlassDataset& dataset, const SolverParams& params,
                                 const MulticlassTrainOptions& options) {
  if (dataset.X.rows() != dataset.labels.size())
    throw std::invalid_argument("train_one_vs_one: row/label count mismatch");

  const std::set<double> distinct(dataset.labels.begin(), dataset.labels.end());
  if (distinct.size() < 2)
    throw std::invalid_argument("train_one_vs_one: need at least two classes");
  const std::vector<double> classes(distinct.begin(), distinct.end());

  // Row indices per class, preserving dataset order.
  std::vector<std::vector<std::size_t>> rows_of_class(classes.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto at = std::lower_bound(classes.begin(), classes.end(), dataset.labels[i]);
    rows_of_class[static_cast<std::size_t>(at - classes.begin())].push_back(i);
  }

  std::vector<SvmModel> pairwise;
  pairwise.reserve(classes.size() * (classes.size() - 1) / 2);
  for (std::size_t a = 0; a < classes.size(); ++a) {
    for (std::size_t b = a + 1; b < classes.size(); ++b) {
      // Binary subproblem: class a -> +1, class b -> -1.
      svmdata::Dataset binary;
      for (const std::size_t i : rows_of_class[a]) {
        binary.X.add_row(dataset.X.row(i));
        binary.y.push_back(1.0);
      }
      for (const std::size_t i : rows_of_class[b]) {
        binary.X.add_row(dataset.X.row(i));
        binary.y.push_back(-1.0);
      }
      TrainOptions train_options;
      train_options.heuristic = options.heuristic;
      // A pair subset can be smaller than the rank count; clamp.
      train_options.num_ranks =
          std::min<int>(options.num_ranks, static_cast<int>(binary.size()));
      pairwise.push_back(train(binary, params, train_options).model);
    }
  }
  return MulticlassModel(classes, std::move(pairwise));
}

}  // namespace svmcore
