// Byte-identity helpers for ResultStore tests.
//
// Compare saved stores with EXPECT_TRUE(same_bytes(a, b)), never with
// EXPECT_EQ on the strings: on a mismatch gtest builds a line diff whose
// table is quadratic in the line count, tens of GB for a store.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "marcopolo/result_store.hpp"

namespace marcopolo::testing_support {

/// The store's canonical CSV artifact.
inline std::string csv_bytes(const core::ResultStore& store) {
  std::ostringstream out;
  store.save_csv(out);
  return out.str();
}

/// Byte equality of two CSV dumps, naming the first line that differs.
inline ::testing::AssertionResult same_bytes(const std::string& a,
                                             const std::string& b) {
  if (a == b) return ::testing::AssertionSuccess();
  std::size_t line = 1;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()) && a[i] == b[i];
       ++i) {
    if (a[i] == '\n') ++line;
  }
  return ::testing::AssertionFailure()
         << "CSV bytes differ from line " << line << " onward (sizes "
         << a.size() << " vs " << b.size() << ")";
}

}  // namespace marcopolo::testing_support
