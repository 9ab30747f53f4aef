#pragma once
// FNV-1a 64: the one byte hasher behind every identity hash (explore, grid
// and fleet parameters), the `.clrdb` checksum and the DesignDb index.

#include <cstddef>
#include <cstdint>

namespace clr::util {

class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;  // FNV prime
  }

  /// Hash the object representation of `v` (little-endian on every
  /// supported target, so values are stable across builds).
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof v);
  }

  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;  // FNV-1a 64 offset basis
};

}  // namespace clr::util
