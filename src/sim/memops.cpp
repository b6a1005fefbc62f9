#include "sim/memops.hpp"

#include <cstring>
#include <stdexcept>

#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "sim/node.hpp"

namespace ash::sim::memops {
namespace {

/// Bounds-check the ranges and charge `insns_per_word` base cycles per
/// 32-bit word plus the cache costs of the described word loop (one
/// Cache::words call). The byte operation is the caller's.
Cycles charge(Node& node, std::uint32_t src, std::uint32_t dst,
              std::uint32_t len, std::uint32_t insns_per_word, bool reads_src,
              bool writes_dst) {
  if (len == 0) return 0;
  if (reads_src && node.mem(src, len) == nullptr) {
    throw std::out_of_range("memops: source out of bounds");
  }
  if (writes_dst && node.mem(dst, len) == nullptr) {
    throw std::out_of_range("memops: destination out of bounds");
  }
  // The byte-serial tail is charged as one word.
  return static_cast<Cycles>(insns_per_word) * ((Cycles{len} + 3) / 4) +
         node.dcache().words(src, dst, len, reads_src, writes_dst);
}

/// charge() plus `word_fn` run over the buffers word by word, so the cost
/// accounting and the byte operation describe the same loop.
template <typename WordFn>
Cycles walk(Node& node, std::uint32_t src, std::uint32_t dst,
            std::uint32_t len, std::uint32_t insns_per_word, bool reads_src,
            bool writes_dst, WordFn word_fn) {
  const Cycles cycles = charge(node, src, dst, len, insns_per_word,
                               reads_src, writes_dst);
  std::uint32_t off = 0;
  for (; off + 4 <= len; off += 4) word_fn(off, 4u);
  if (off < len) word_fn(off, len - off);
  return cycles;
}

}  // namespace

Cycles copy(Node& node, std::uint32_t dst, std::uint32_t src,
            std::uint32_t len) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src, len);
  return walk(node, src, dst, len, node.cost().copy_loop_insns_per_word,
              true, true, [&](std::uint32_t off, std::uint32_t n) {
                std::memmove(d + off, s + off, n);
              });
}

// The checksum loops fold their words with one wide sum
// (util::cksum32_accumulate_words), which returns exactly the serial
// p_cksum32 accumulator; the charge still describes the word loop.

Cycles cksum(Node& node, std::uint32_t addr, std::uint32_t len,
             std::uint32_t* acc) {
  const Cycles cycles = charge(node, addr, 0, len,
                               node.cost().cksum_loop_insns_per_word, true,
                               false);
  if (len > 0) {
    *acc = util::cksum32_accumulate_words(*acc, {node.mem(addr, len), len});
  }
  return cycles;
}

Cycles bswap(Node& node, std::uint32_t addr, std::uint32_t len) {
  std::uint8_t* p = node.mem(addr, len);
  return walk(node, addr, addr, len, node.cost().bswap_loop_insns_per_word,
              true, true, [&](std::uint32_t off, std::uint32_t n) {
                if (n == 4) {
                  util::store_u32(p + off,
                                  util::bswap32(util::load_u32(p + off)));
                }
              });
}

Cycles copy_cksum(Node& node, std::uint32_t dst, std::uint32_t src,
                  std::uint32_t len, std::uint32_t* acc) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src, len);
  const std::uint32_t per_word = node.cost().copy_loop_insns_per_word +
                                 node.cost().integrated_cksum_extra;
  const Cycles cycles = charge(node, src, dst, len, per_word, true, true);
  if (len > 0) {
    *acc = util::cksum32_accumulate_words(*acc, {s, len});
    std::memmove(d, s, len);
  }
  return cycles;
}

Cycles copy_cksum_bswap(Node& node, std::uint32_t dst, std::uint32_t src,
                        std::uint32_t len, std::uint32_t* acc) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src, len);
  const std::uint32_t per_word = node.cost().copy_loop_insns_per_word +
                                 node.cost().integrated_cksum_extra +
                                 node.cost().integrated_bswap_extra;
  const Cycles cycles = charge(node, src, dst, len, per_word, true, true);
  if (len > 0) {
    *acc = util::cksum32_accumulate_words(*acc, {s, len});
    std::uint32_t off = 0;
    for (; off + 4 <= len; off += 4) {
      util::store_u32(d + off, util::bswap32(util::load_u32(s + off)));
    }
    std::memmove(d + off, s + off, len - off);  // tail copied as is
  }
  return cycles;
}

Cycles fill(Node& node, std::uint32_t addr, std::uint32_t len,
            std::uint8_t value) {
  std::uint8_t* p = node.mem(addr, len);
  return walk(node, 0, addr, len, node.cost().copy_loop_insns_per_word - 1,
              false, true, [&](std::uint32_t off, std::uint32_t n) {
                std::memset(p + off, value, n);
              });
}

Cycles stage_store_cycles(Node& node, std::uint32_t addr,
                          std::uint32_t len) {
  return static_cast<Cycles>(node.cost().copy_loop_insns_per_word) *
             ((Cycles{len} + 3) / 4) +
         node.dcache().words(0, addr, len, false, true);
}

namespace {

/// Offset of byte `i` of the logical packet within a striped buffer:
/// data chunks alternate with equal-sized pad chunks.
constexpr std::uint32_t striped_off(std::uint32_t i, std::uint32_t chunk) {
  return (i / chunk) * 2 * chunk + (i % chunk);
}

template <typename WordFn>
Cycles walk_destripe(Node& node, std::uint32_t dst, std::uint32_t src,
                     std::uint32_t len, std::uint32_t chunk,
                     std::uint32_t insns_per_word, WordFn word_fn) {
  if (len == 0) return 0;
  if (node.mem(src, 2 * len) == nullptr || node.mem(dst, len) == nullptr) {
    throw std::out_of_range("memops: destripe range out of bounds");
  }
  Cycles cycles = 0;
  Cache& cache = node.dcache();
  for (std::uint32_t off = 0; off < len; off += 4) {
    const std::uint32_t n = len - off < 4 ? len - off : 4;
    cycles += insns_per_word;
    cycles += cache.access(src + striped_off(off, chunk), n, false);
    cycles += cache.access(dst + off, n, true);
    word_fn(off, n);
  }
  return cycles;
}

}  // namespace

Cycles copy_destripe(Node& node, std::uint32_t dst, std::uint32_t src_striped,
                     std::uint32_t len, std::uint32_t chunk) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src_striped, len ? 2 * len : 0);
  // +1 insn per word for the stride bookkeeping.
  return walk_destripe(node, dst, src_striped, len, chunk,
                       node.cost().copy_loop_insns_per_word + 1,
                       [&](std::uint32_t off, std::uint32_t n) {
                         for (std::uint32_t i = 0; i < n; ++i) {
                           d[off + i] = s[striped_off(off + i, chunk)];
                         }
                       });
}

Cycles copy_destripe_cksum(Node& node, std::uint32_t dst,
                           std::uint32_t src_striped, std::uint32_t len,
                           std::uint32_t* acc, std::uint32_t chunk) {
  std::uint8_t* d = node.mem(dst, len);
  const std::uint8_t* s = node.mem(src_striped, len ? 2 * len : 0);
  const std::uint32_t per_word = node.cost().copy_loop_insns_per_word + 1 +
                                 node.cost().integrated_cksum_extra;
  return walk_destripe(node, dst, src_striped, len, chunk, per_word,
                       [&](std::uint32_t off, std::uint32_t n) {
                         std::uint32_t w = 0;
                         for (std::uint32_t i = 0; i < n; ++i) {
                           d[off + i] = s[striped_off(off + i, chunk)];
                         }
                         std::memcpy(&w, d + off, n);
                         *acc = util::cksum32_accumulate(*acc, w);
                       });
}

Cycles copy_stripe(Node& node, std::uint32_t dst_striped, std::uint32_t src,
                   std::uint32_t len, std::uint32_t chunk) {
  const std::uint8_t* s = node.mem(src, len);
  std::uint8_t* d = node.mem(dst_striped, len ? 2 * len : 0);
  if (s == nullptr || (len != 0 && d == nullptr)) {
    throw std::out_of_range("memops: stripe range out of bounds");
  }
  Cycles cycles = 0;
  Cache& cache = node.dcache();
  for (std::uint32_t off = 0; off < len; off += 4) {
    const std::uint32_t n = len - off < 4 ? len - off : 4;
    cycles += node.cost().copy_loop_insns_per_word + 1;
    cycles += cache.access(src + off, n, false);
    cycles += cache.access(dst_striped + striped_off(off, chunk), n, true);
    for (std::uint32_t i = 0; i < n; ++i) {
      d[striped_off(off + i, chunk)] = s[off + i];
    }
  }
  return cycles;
}

}  // namespace ash::sim::memops
