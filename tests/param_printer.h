// Build-independent names for value-parameterized tests.
//
// gtest (and ctest, through gtest_discover_tests) names a value-parameterized
// test after its printed parameter. A struct without a printer prints as its
// raw bytes, padding included, and padding bytes hold whatever the build left
// there, so the same test could carry a different name in each build.
// PrintFieldBytes prints the same "N-byte object <...>" text from a copy of
// the fields laid over zeroed bytes, so a name reads as the default printer
// would with zero padding, in every build.

#ifndef BCAST_TESTS_PARAM_PRINTER_H_
#define BCAST_TESTS_PARAM_PRINTER_H_

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

namespace bcast {

// Call from a struct's PrintTo with a pointer to every one of its fields.
template <typename T, typename... Fields>
void PrintFieldBytes(const T& value, std::ostream* os,
                     Fields T::*... fields) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  auto copy_field = [&](const auto& field) {
    const auto* at = reinterpret_cast<const unsigned char*>(&field);
    std::memcpy(bytes + (at - base), at, sizeof(field));
  };
  (copy_field(value.*fields), ...);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(T), os);
}

}  // namespace bcast

#endif  // BCAST_TESTS_PARAM_PRINTER_H_
