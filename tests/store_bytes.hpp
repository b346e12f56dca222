// Byte-identity helpers for ResultStore tests.
//
// Compare saved stores with EXPECT_TRUE(same_bytes(a, b)), never with
// EXPECT_EQ on the strings: on a mismatch gtest prints both in full.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "marcopolo/result_store.hpp"

namespace marcopolo::testing_support {

/// The store's MPRS bytes (save_binary): every cell, unrecorded holes
/// included, plus the attack-type tags. tests/golden/digests.txt hashes
/// the same bytes.
inline std::string mprs_bytes(const core::ResultStore& store) {
  std::ostringstream out;
  store.save_binary(out);
  return out.str();
}

/// Byte equality of two saved stores, naming the first byte that differs.
inline ::testing::AssertionResult same_bytes(const std::string& a,
                                             const std::string& b) {
  if (a == b) return ::testing::AssertionSuccess();
  const auto diff = std::mismatch(a.begin(), a.end(), b.begin(), b.end());
  return ::testing::AssertionFailure()
         << "store bytes differ from byte " << (diff.first - a.begin())
         << " onward (sizes " << a.size() << " vs " << b.size() << ")";
}

}  // namespace marcopolo::testing_support
