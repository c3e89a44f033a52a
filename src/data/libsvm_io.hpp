// Reader/writer for the libsvm text format used by every dataset on the
// libsvm web page (the paper's data source):
//   <label> <index>:<value> <index>:<value> ...\n
// Labels are mapped to ±1: {+1,-1} pass through; {1,0} and {1,2} map the
// first-seen distinct label to +1 and the other to -1. Indices in files are
// 1-based (libsvm convention) and stored 0-based internally.
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "data/sparse.hpp"

namespace svmdata {

struct LibsvmReadOptions {
  /// Stop after this many rows (0 = read all); used to cap huge files.
  std::size_t max_rows = 0;
};

/// Parses a libsvm-format stream. Throws std::runtime_error with the
/// offending line number on malformed input (bad number, non-increasing
/// index, more than two distinct labels).
[[nodiscard]] Dataset read_libsvm(std::istream& in, const LibsvmReadOptions& options = {});

/// Convenience file wrapper; throws std::runtime_error if unopenable.
[[nodiscard]] Dataset read_libsvm_file(const std::string& path,
                                       const LibsvmReadOptions& options = {});

/// Writes in libsvm format with 1-based indices; "%.17g" values round-trip.
void write_libsvm(std::ostream& out, const Dataset& dataset);
void write_libsvm_file(const std::string& path, const Dataset& dataset);

}  // namespace svmdata
