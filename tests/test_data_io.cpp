#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "data/libsvm_io.hpp"
#include "data/synthetic.hpp"

namespace {

using svmdata::Dataset;
using svmdata::read_libsvm;
using svmdata::write_libsvm;

TEST(LibsvmIo, ParsesBasicFile) {
  std::istringstream in("+1 1:0.5 3:2\n-1 2:1\n");
  const Dataset d = read_libsvm(in);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d.y[0], 1.0);
  EXPECT_DOUBLE_EQ(d.y[1], -1.0);
  ASSERT_EQ(d.X.row(0).size(), 2u);
  EXPECT_EQ(d.X.row(0)[0].index, 0);  // 1-based in file, 0-based in memory
  EXPECT_EQ(d.X.row(0)[1].index, 2);
  EXPECT_DOUBLE_EQ(d.X.row(0)[1].value, 2.0);
}

TEST(LibsvmIo, SkipsBlankAndCommentLines) {
  std::istringstream in("\n# a comment\n+1 1:1\n   \n-1 1:2\n");
  EXPECT_EQ(read_libsvm(in).size(), 2u);
}

TEST(LibsvmIo, MapsZeroOneLabels) {
  std::istringstream in("1 1:1\n0 1:2\n1 1:3\n");
  const Dataset d = read_libsvm(in);
  EXPECT_DOUBLE_EQ(d.y[0], 1.0);   // first-seen raw label -> +1
  EXPECT_DOUBLE_EQ(d.y[1], -1.0);
  EXPECT_DOUBLE_EQ(d.y[2], 1.0);
}

TEST(LibsvmIo, KeepsPlusMinusOneLabels) {
  std::istringstream in("-1 1:1\n+1 1:2\n");
  const Dataset d = read_libsvm(in);
  EXPECT_DOUBLE_EQ(d.y[0], -1.0);
  EXPECT_DOUBLE_EQ(d.y[1], 1.0);
}

TEST(LibsvmIo, RejectsThreeLabels) {
  std::istringstream in("1 1:1\n2 1:1\n3 1:1\n");
  EXPECT_THROW(read_libsvm(in), std::runtime_error);
}

TEST(LibsvmIo, RejectsMalformedPair) {
  std::istringstream in("+1 1:1 2\n");
  EXPECT_THROW(read_libsvm(in), std::runtime_error);
}

TEST(LibsvmIo, RejectsZeroIndex) {
  std::istringstream in("+1 0:1\n");
  EXPECT_THROW(read_libsvm(in), std::runtime_error);
}

TEST(LibsvmIo, RejectsDecreasingIndices) {
  std::istringstream in("+1 3:1 2:1\n");
  EXPECT_THROW(read_libsvm(in), std::runtime_error);
}

TEST(LibsvmIo, ErrorMessageCarriesLineNumber) {
  std::istringstream in("+1 1:1\n+1 bad\n");
  try {
    (void)read_libsvm(in);
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// Every malformed line must fail with a clear line-numbered parse error —
// never UB, never a silently mangled dataset.
void expect_parse_error(const std::string& text, std::size_t line,
                        const std::string& what_fragment) {
  std::istringstream in(text);
  try {
    (void)read_libsvm(in);
    FAIL() << "expected parse error for: " << text;
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("line " + std::to_string(line)), std::string::npos) << message;
    EXPECT_NE(message.find(what_fragment), std::string::npos) << message;
  }
}

TEST(LibsvmIo, RejectsNonNumericIndex) {
  expect_parse_error("+1 1:1\n+1 abc:2\n", 2, "integer index");
}

TEST(LibsvmIo, RejectsNegativeIndex) {
  expect_parse_error("+1 -3:2\n", 1, "index must be >= 1");
}

TEST(LibsvmIo, RejectsDuplicateIndex) {
  expect_parse_error("+1 2:1 2:5\n", 1, "duplicate feature index");
}

TEST(LibsvmIo, RejectsIndexOverflowing32Bits) {
  expect_parse_error("+1 4294967295:1\n", 1, "overflows 32 bits");
}

TEST(LibsvmIo, RejectsTruncatedPair) {
  expect_parse_error("+1 1:1\n-1 3:\n", 2, "missing feature value");
}

TEST(LibsvmIo, RejectsWhitespaceAfterColon) {
  // strtod would silently skip the space and parse the next token.
  expect_parse_error("+1 3: 5\n", 1, "missing feature value");
}

TEST(LibsvmIo, RejectsNonNumericValue) {
  expect_parse_error("+1 3:x\n", 1, "expected a number");
}

TEST(LibsvmIo, RejectsNonFiniteValues) {
  expect_parse_error("+1 1:inf\n", 1, "non-finite");
  expect_parse_error("+1 1:nan\n", 1, "non-finite");
  expect_parse_error("nan 1:1\n", 1, "non-finite");
}

TEST(LibsvmIo, RejectsMissingColon) {
  expect_parse_error("+1 17\n", 1, "expected ':'");
}

TEST(LibsvmIo, DropsExplicitZeroValues) {
  std::istringstream in("+1 1:0 2:5\n-1 1:1\n");
  const Dataset d = read_libsvm(in);
  EXPECT_EQ(d.X.row(0).size(), 1u);
  EXPECT_EQ(d.X.row(0)[0].index, 1);
}

TEST(LibsvmIo, MaxRowsCap) {
  std::istringstream in("+1 1:1\n-1 1:2\n+1 1:3\n");
  EXPECT_EQ(read_libsvm(in, {.max_rows = 2}).size(), 2u);
}

TEST(LibsvmIo, RoundTripExact) {
  const Dataset original =
      svmdata::synthetic::gaussian_blobs({.n = 50, .d = 7, .separation = 2.0, .seed = 3});
  std::ostringstream out;
  write_libsvm(out, original);
  std::istringstream in(out.str());
  const Dataset loaded = read_libsvm(in);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.X.nonzeros(), original.X.nonzeros());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.y[i], original.y[i]);
    const auto a = original.X.row(i);
    const auto b = loaded.X.row(i);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].index, b[k].index);
      EXPECT_EQ(a[k].value, b[k].value);  // %.17g round-trips exactly
    }
  }
}

TEST(LibsvmIo, MissingFileThrows) {
  EXPECT_THROW((void)svmdata::read_libsvm_file("/nonexistent/path.svm"), std::runtime_error);
}

}  // namespace
