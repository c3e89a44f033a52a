#include "core/model.hpp"

#include <fstream>
#include <ios>
#include <sstream>
#include <stdexcept>

namespace svmcore {

SvmModel::SvmModel(svmkernel::KernelParams kernel, svmdata::CsrMatrix support_vectors,
                   std::vector<double> coefficients, double beta)
    : kernel_(kernel),
      support_vectors_(std::move(support_vectors)),
      coefficients_(std::move(coefficients)),
      beta_(beta) {
  if (support_vectors_.rows() != coefficients_.size())
    throw std::invalid_argument("SvmModel: support vector / coefficient count mismatch");
  sv_sq_norms_ = support_vectors_.row_squared_norms();
}

double SvmModel::decision_value(std::span<const svmdata::Feature> x) const {
  const svmkernel::Kernel kernel(kernel_);
  const double sq_x = svmdata::CsrMatrix::squared_norm(x);
  double sum = 0.0;
  for (std::size_t j = 0; j < coefficients_.size(); ++j)
    sum += coefficients_[j] * kernel.eval(support_vectors_.row(j), x, sv_sq_norms_[j], sq_x);
  return sum - beta_;
}

svmkernel::KernelEngine SvmModel::make_engine(svmkernel::EngineBackend backend,
                                              svmkernel::RowFlavor flavor) const {
  return svmkernel::KernelEngine(kernel_, support_vectors_, backend, sv_sq_norms_, flavor);
}

double SvmModel::decision_value(std::span<const svmdata::Feature> x,
                                svmkernel::KernelEngine& engine) const {
  const double sq_x = svmdata::CsrMatrix::squared_norm(x);
  // accumulate_rows sums coef_j * K(sv_j, x) in ascending j on every
  // path, the loop of the engine-free overload above — bit-identical at
  // f64.
  return engine.accumulate_rows(x, sq_x, coefficients_) - beta_;
}

std::vector<double> SvmModel::predict_all(const svmdata::CsrMatrix& X) const {
  std::vector<double> out(X.rows());
  const auto n = static_cast<std::ptrdiff_t>(X.rows());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < n; ++i)
    out[static_cast<std::size_t>(i)] = predict(X.row(static_cast<std::size_t>(i)));
  return out;
}

double SvmModel::accuracy(const svmdata::Dataset& test) const {
  if (test.size() == 0) return 0.0;
  const std::vector<double> predicted = predict_all(test.X);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i)
    if (predicted[i] == test.y[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

namespace {
constexpr char kMagic[] = "shrinksvm-model-v1";
}

void SvmModel::save(std::ostream& out) const {
  // 17 significant digits (%.17g) round-trip every normal double exactly.
  const std::ios_base::fmtflags flags = out.flags(std::ios_base::dec);
  const std::streamsize precision = out.precision(17);
  out << kMagic << '\n';
  out << "kernel " << svmkernel::to_string(kernel_.type) << '\n';
  out << "gamma " << kernel_.gamma << "\ncoef0 " << kernel_.coef0 << "\ndegree "
      << kernel_.degree << "\nbeta " << beta_ << '\n';
  out << "nsv " << coefficients_.size() << '\n';
  for (std::size_t j = 0; j < coefficients_.size(); ++j) {
    out << coefficients_[j];
    for (const svmdata::Feature& f : support_vectors_.row(j))
      out << ' ' << f.index << ':' << f.value;
    out << '\n';
  }
  out.flags(flags);
  out.precision(precision);
}

void SvmModel::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SvmModel::save_file: cannot open " + path);
  save(out);
}

SvmModel SvmModel::load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    throw std::runtime_error("SvmModel::load: bad magic (not a shrinksvm model)");

  svmkernel::KernelParams params;
  double beta = 0.0;
  std::size_t nsv = 0;
  std::string key;
  for (int field = 0; field < 6; ++field) {
    if (!(in >> key)) throw std::runtime_error("SvmModel::load: truncated header");
    if (key == "kernel") {
      std::string name;
      in >> name;
      params.type = svmkernel::kernel_type_from_string(name);
    } else if (key == "gamma") {
      in >> params.gamma;
    } else if (key == "coef0") {
      in >> params.coef0;
    } else if (key == "degree") {
      in >> params.degree;
    } else if (key == "beta") {
      in >> beta;
    } else if (key == "nsv") {
      in >> nsv;
    } else {
      throw std::runtime_error("SvmModel::load: unknown header field '" + key + "'");
    }
  }
  std::getline(in, line);  // consume end of header line

  svmdata::CsrMatrix sv;
  std::vector<double> coef;
  coef.reserve(nsv);
  std::vector<svmdata::Feature> row;
  for (std::size_t j = 0; j < nsv; ++j) {
    if (!std::getline(in, line))
      throw std::runtime_error("SvmModel::load: truncated support vector list");
    std::istringstream fields(line);
    double c = 0.0;
    if (!(fields >> c)) throw std::runtime_error("SvmModel::load: bad coefficient");
    coef.push_back(c);
    row.clear();
    std::string token;
    while (fields >> token) {
      const auto colon = token.find(':');
      if (colon == std::string::npos)
        throw std::runtime_error("SvmModel::load: bad feature token '" + token + "'");
      row.push_back(svmdata::Feature{std::stoi(token.substr(0, colon)),
                                     std::stod(token.substr(colon + 1))});
    }
    sv.add_row(row);
  }
  return SvmModel(params, std::move(sv), std::move(coef), beta);
}

SvmModel SvmModel::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("SvmModel::load_file: cannot open " + path);
  return load(in);
}

}  // namespace svmcore
