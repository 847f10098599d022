// Strict parsing of the runtime knobs (common/tuning.hpp): a value must
// parse in full and land in range, otherwise the knob keeps its default.
// The parsers are called directly on a scratch variable name, so the
// process-wide cached knobs are never touched.

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/tuning.hpp"

namespace tucker {
namespace {

constexpr const char* kVar = "KNOB_PARSE_TEST";

tune::index_t parse_index(const char* value) {
  setenv(kVar, value, 1);
  const auto v = tune::detail::env_index(kVar, 7, 4, 1 << 20);
  unsetenv(kVar);
  return v;
}

double parse_double(const char* value) {
  setenv(kVar, value, 1);
  const double v = tune::detail::env_double(kVar, 2.5);
  unsetenv(kVar);
  return v;
}

TEST(KnobParseTest, IndexAcceptsWholeInRangeNumbers) {
  EXPECT_EQ(parse_index("64"), 64);
  EXPECT_EQ(parse_index("4"), 4);
  EXPECT_EQ(parse_index("1048576"), 1 << 20);
}

TEST(KnobParseTest, IndexRejectsMalformedValues) {
  EXPECT_EQ(parse_index("12abc"), 7);
  EXPECT_EQ(parse_index("abc"), 7);
  EXPECT_EQ(parse_index(""), 7);
  EXPECT_EQ(parse_index("64 "), 7);
  EXPECT_EQ(parse_index("6.4"), 7);
}

TEST(KnobParseTest, IndexRejectsOutOfRangeValues) {
  EXPECT_EQ(parse_index("3"), 7);
  EXPECT_EQ(parse_index("-64"), 7);
  EXPECT_EQ(parse_index("1048577"), 7);
  EXPECT_EQ(parse_index("99999999999999999999999"), 7);
}

TEST(KnobParseTest, UnsetIndexKeepsDefault) {
  unsetenv(kVar);
  EXPECT_EQ(tune::detail::env_index(kVar, 7, 4, 1 << 20), 7);
}

TEST(KnobParseTest, DoubleAcceptsWholeNonNegativeNumbers) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("0"), 0.0);
  EXPECT_EQ(parse_double("1e5"), 1e5);
}

TEST(KnobParseTest, DoubleRejectsMalformedValues) {
  EXPECT_EQ(parse_double("1.5x"), 2.5);
  EXPECT_EQ(parse_double("abc"), 2.5);
  EXPECT_EQ(parse_double(""), 2.5);
  EXPECT_EQ(parse_double("nan"), 2.5);
}

TEST(KnobParseTest, DoubleRejectsOutOfRangeValues) {
  EXPECT_EQ(parse_double("-1"), 2.5);
  EXPECT_EQ(parse_double("1e999"), 2.5);
}

}  // namespace
}  // namespace tucker
