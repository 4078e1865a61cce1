// Bit counting for the exact searches' 64-bit node masks.

#ifndef BCAST_UTIL_BITS_H_
#define BCAST_UTIL_BITS_H_

#include <cstdint>

namespace bcast {

/// Number of set bits in `x`. Branch-free SWAR arithmetic: on baseline
/// x86-64 (no POPCNT) std::popcount compiles to a libgcc `__popcountdi2`
/// call, which the search hot loops cannot afford.
constexpr int PopCount(uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
}

}  // namespace bcast

#endif  // BCAST_UTIL_BITS_H_
