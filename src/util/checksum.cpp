#include "util/checksum.hpp"

#include <cstring>

#include "util/byteorder.hpp"

namespace ash::util {

std::uint32_t cksum32_accumulate_words(
    std::uint32_t acc, std::span<const std::uint8_t> data) noexcept {
  // Serial end-around carry keeps the accumulator congruent to the plain
  // sum S = acc + words modulo 2^32 - 1, and each step maps a nonzero
  // sum into [1, 2^32 - 1] (it returns 0 only for 0 + 0). So the serial
  // result is 0 when S is 0 and otherwise the unique value in
  // [1, 2^32 - 1] congruent to S, which is (S - 1) % (2^32 - 1) + 1.
  // S fits in 64 bits for fewer than 2^32 - 1 words (16 GiB).
  std::uint64_t sum = acc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 4; p += 4, n -= 4) sum += load_u32(p);
  if (n > 0) {
    std::uint32_t w = 0;
    std::memcpy(&w, p, n);
    sum += w;
  }
  return sum == 0 ? 0
                  : static_cast<std::uint32_t>((sum - 1) % 0xffffffffu + 1);
}

std::uint32_t cksum_partial(std::span<const std::uint8_t> data,
                            std::uint32_t acc) noexcept {
  // Sum 16-bit big-endian words. Work in a 64-bit accumulator and fold
  // carries at the end; a 64-bit accumulator cannot overflow for any
  // realistic packet size (would need > 2^48 bytes).
  std::uint64_t sum = acc;
  std::size_t i = 0;
  const std::size_t n = data.size();
  for (; i + 1 < n; i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < n) {
    sum += static_cast<std::uint32_t>(data[i]) << 8;  // pad odd byte with 0
  }
  while (sum >> 32) sum = (sum & 0xffffffffu) + (sum >> 32);
  return static_cast<std::uint32_t>(sum);
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  return static_cast<std::uint16_t>(~fold16(cksum_partial(data)));
}

bool checksum_ok(std::span<const std::uint8_t> data) noexcept {
  return fold16(cksum_partial(data)) == 0xffff;
}

}  // namespace ash::util
