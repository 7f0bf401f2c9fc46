#include "util/crc32.hpp"

#include <array>

namespace accu::util {

namespace {

using Table = std::array<std::uint32_t, 256>;

// Slicing-by-8 (Kounavis & Berry): kTables[0] is the classic byte-at-a-time
// table; kTables[k][b] is the CRC of byte b followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.  Same
// polynomial and same values as the byte-wise loop, which still handles
// the tail.
constexpr std::array<Table, 8> make_crc32_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xffu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr std::array<Table, 8> kTables = make_crc32_tables();

/// Little-endian 32-bit load from any alignment (compiles to one load on
/// little-endian targets).
inline std::uint32_t load_le32(const unsigned char* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len,
                    std::uint32_t crc) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xffffffffu;
  for (; len >= 8; bytes += 8, len -= 8) {
    const std::uint32_t lo = c ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++bytes, --len) {
    c = kTables[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace accu::util
