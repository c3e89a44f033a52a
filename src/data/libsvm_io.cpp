#include "data/libsvm_io.hpp"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <vector>

namespace svmdata {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::runtime_error("libsvm parse error at line " + std::to_string(line) + ": " + what);
}

double parse_double(const char*& cursor, std::size_t line) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(cursor, &end);
  if (end == cursor || errno == ERANGE) fail(line, "expected a number");
  if (!std::isfinite(v)) fail(line, "non-finite number");  // strtod accepts inf/nan
  cursor = end;
  return v;
}

long parse_long(const char*& cursor, std::size_t line) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(cursor, &end, 10);
  if (end == cursor || errno == ERANGE) fail(line, "expected an integer index");
  cursor = end;
  return v;
}

void skip_spaces(const char*& cursor) {
  while (*cursor == ' ' || *cursor == '\t') ++cursor;
}

}  // namespace

Dataset read_libsvm(std::istream& in, const LibsvmReadOptions& options) {
  Dataset out;
  std::string line;
  std::size_t line_number = 0;
  std::vector<Feature> row;

  // Two-label normalization state: raw label -> ±1.
  bool have_first = false;
  bool have_second = false;
  double first_raw = 0.0;
  double second_raw = 0.0;

  std::vector<double> raw_labels;

  while (std::getline(in, line)) {
    ++line_number;
    const char* cursor = line.c_str();
    skip_spaces(cursor);
    if (*cursor == '\0' || *cursor == '#') continue;  // blank or comment line

    const double label = parse_double(cursor, line_number);
    if (!have_first) {
      have_first = true;
      first_raw = label;
    } else if (label != first_raw && !have_second) {
      have_second = true;
      second_raw = label;
    } else if (label != first_raw && label != second_raw) {
      fail(line_number, "more than two distinct labels (binary classification only)");
    }

    row.clear();
    long previous_index = 0;  // file indices are 1-based
    while (true) {
      skip_spaces(cursor);
      if (*cursor == '\0' || *cursor == '#') break;
      const long index = parse_long(cursor, line_number);
      if (*cursor != ':') fail(line_number, "expected ':' after feature index");
      ++cursor;
      // strtod would silently skip whitespace here, turning "3: 5" or a
      // truncated "3:" into something other than what the file says.
      if (*cursor == '\0' || *cursor == ' ' || *cursor == '\t')
        fail(line_number, "missing feature value after ':'");
      const double value = parse_double(cursor, line_number);
      if (index <= 0) fail(line_number, "feature index must be >= 1");
      if (index > static_cast<long>(std::numeric_limits<std::int32_t>::max()))
        fail(line_number, "feature index overflows 32 bits");
      if (index <= previous_index) {
        fail(line_number, index == previous_index ? "duplicate feature index"
                                                  : "feature indices must be increasing");
      }
      previous_index = index;
      if (value != 0.0) row.push_back(Feature{static_cast<std::int32_t>(index - 1), value});
    }

    out.X.add_row(row);
    raw_labels.push_back(label);
    if (options.max_rows != 0 && out.X.rows() >= options.max_rows) break;
  }

  // Map raw labels to ±1. {+1,-1} keep their sign; otherwise first-seen = +1.
  const bool already_signed =
      (first_raw == 1.0 && (!have_second || second_raw == -1.0)) ||
      (first_raw == -1.0 && (!have_second || second_raw == 1.0));
  out.y.reserve(raw_labels.size());
  for (const double raw : raw_labels) {
    if (already_signed)
      out.y.push_back(raw);
    else
      out.y.push_back(raw == first_raw ? 1.0 : -1.0);
  }
  return out;
}

Dataset read_libsvm_file(const std::string& path, const LibsvmReadOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open libsvm file: " + path);
  return read_libsvm(in, options);
}

void write_libsvm(std::ostream& out, const Dataset& dataset) {
  char buffer[64];
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    out << (dataset.y[i] > 0 ? "+1" : "-1");
    for (const Feature& f : dataset.X.row(i)) {
      std::snprintf(buffer, sizeof(buffer), " %d:%.17g", f.index + 1, f.value);
      out << buffer;
    }
    out << '\n';
  }
}

void write_libsvm_file(const std::string& path, const Dataset& dataset) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open file for writing: " + path);
  write_libsvm(out, dataset);
}

}  // namespace svmdata
