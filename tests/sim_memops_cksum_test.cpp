// The checksum loops of sim::memops (cksum, copy_cksum, copy_cksum_bswap)
// against the serial word loop they describe: one p_cksum32 fold
// (util::cksum32_accumulate) per little-endian word with the tail
// zero-padded, the loop's instructions per word, and one cache load and
// store per word. Every case runs on two identical nodes, the real
// helper on one and the reference loop on the other, and compares the
// cycles, the cache hit/miss counters, the destination bytes and the
// accumulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/memops.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"

namespace ash::sim {
namespace {

enum class Op { kCksum, kCopyCksum, kCopyCksumBswap };

constexpr std::uint32_t kSrcBase = 0x1000;
constexpr std::uint32_t kDstBase = 0x8000;
constexpr std::uint32_t kMaxLen = 9000;

NodeConfig small_node() {
  NodeConfig cfg;
  cfg.memory_bytes = 64u << 10;
  return cfg;
}

/// The serial loop: per word, the loop's instructions, a cache load of
/// the source and (for the copies) a cache store of the destination, one
/// cksum32_accumulate, and the copied (or byte-swapped) word.
Cycles reference(Node& node, Op op, std::uint32_t dst, std::uint32_t src,
                 std::uint32_t len, std::uint32_t* acc) {
  const CostModel& c = node.cost();
  std::uint32_t per_word = c.cksum_loop_insns_per_word;
  if (op != Op::kCksum) {
    per_word = c.copy_loop_insns_per_word + c.integrated_cksum_extra;
  }
  if (op == Op::kCopyCksumBswap) per_word += c.integrated_bswap_extra;
  const bool writes = op != Op::kCksum;
  const std::uint8_t* s = node.mem(src, len);
  std::uint8_t* d = writes ? node.mem(dst, len) : nullptr;
  Cycles cycles = 0;
  for (std::uint32_t off = 0; off < len; off += 4) {
    const std::uint32_t n = std::min(4u, len - off);
    cycles += per_word;
    cycles += node.dcache().access(src + off, n, false);
    if (writes) cycles += node.dcache().access(dst + off, n, true);
    std::uint32_t w = 0;
    std::memcpy(&w, s + off, n);
    *acc = util::cksum32_accumulate(*acc, w);
    if (!writes) continue;
    if (op == Op::kCopyCksumBswap && n == 4) {
      util::store_u32(d + off, util::bswap32(w));
    } else {
      std::memcpy(d + off, s + off, n);
    }
  }
  return cycles;
}

Cycles run_op(Node& node, Op op, std::uint32_t dst, std::uint32_t src,
              std::uint32_t len, std::uint32_t* acc) {
  switch (op) {
    case Op::kCksum:
      return memops::cksum(node, src, len, acc);
    case Op::kCopyCksum:
      return memops::copy_cksum(node, dst, src, len, acc);
    case Op::kCopyCksumBswap:
      return memops::copy_cksum_bswap(node, dst, src, len, acc);
  }
  return 0;
}

/// Two nodes whose caches and memory move in lock step.
class Pair {
 public:
  Pair()
      : fast_(sim_.add_node("fast", small_node())),
        ref_(sim_.add_node("ref", small_node())) {}

  /// Store `data` at `src` on both nodes, run `op` on each, and compare
  /// everything the loop produces. False (with a gtest failure) on the
  /// first difference.
  bool check(Op op, std::uint32_t src_align, std::uint32_t dst_align,
             std::uint32_t acc0, const std::vector<std::uint8_t>& data) {
    const auto len = static_cast<std::uint32_t>(data.size());
    const std::uint32_t src = kSrcBase + src_align;
    const std::uint32_t dst = kDstBase + dst_align;
    for (Node* n : {&fast_, &ref_}) {
      if (len > 0) std::memcpy(n->mem(src, len), data.data(), len);
      std::memset(n->mem(kDstBase, kMaxLen + 32), 0x5a, kMaxLen + 32);
    }
    std::uint32_t got_acc = acc0;
    std::uint32_t want_acc = acc0;
    const Cycles got = run_op(fast_, op, dst, src, len, &got_acc);
    const Cycles want = reference(ref_, op, dst, src, len, &want_acc);
    const bool same =
        got == want && got_acc == want_acc &&
        fast_.dcache().hits() == ref_.dcache().hits() &&
        fast_.dcache().misses() == ref_.dcache().misses() &&
        std::memcmp(fast_.mem(kDstBase, kMaxLen + 32),
                    ref_.mem(kDstBase, kMaxLen + 32), kMaxLen + 32) == 0;
    EXPECT_TRUE(same) << "op=" << static_cast<int>(op) << " len=" << len
                      << " src_align=" << src_align
                      << " dst_align=" << dst_align << " acc0=" << acc0
                      << " cycles " << got << " vs " << want << " acc "
                      << got_acc << " vs " << want_acc;
    return same;
  }

 private:
  Simulator sim_;
  Node& fast_;
  Node& ref_;
};

constexpr Op kOps[] = {Op::kCksum, Op::kCopyCksum, Op::kCopyCksumBswap};

std::vector<std::uint8_t> random_bytes(util::Rng& rng, std::uint32_t len) {
  std::vector<std::uint8_t> v(len);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next());
  return v;
}

/// Random data whose padded little-endian word sum is a nonzero multiple
/// of 2^32 - 1: the first word cancels the rest. Serial folding then
/// ends at 0xffffffff (ones'-complement negative zero), never at 0.
std::vector<std::uint8_t> zero_mod_bytes(util::Rng& rng, std::uint32_t len) {
  std::vector<std::uint8_t> v = random_bytes(rng, len);
  std::uint64_t rest = 0;
  for (std::uint32_t off = 4; off < len; off += 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, v.data() + off, std::min(4u, len - off));
    rest += w;
  }
  const std::uint64_t m = 0xffffffffu;
  const auto first = static_cast<std::uint32_t>((m - rest % m) % m);
  std::memcpy(v.data(), &first, 4);
  if (std::all_of(v.begin(), v.end(), [](std::uint8_t b) { return b == 0; })) {
    v[0] = 0xff;  // an all-zero draw would sum to 0, not to a multiple
    v[1] = 0xff;
    v[2] = 0xff;
    v[3] = 0xff;
  }
  return v;
}

TEST(WideCksum, EveryLengthMatchesTheSerialLoop) {
  // Lengths 0..9000, with the alignments and starting accumulators
  // rotating so every length meets several of each.
  util::Rng rng(0xc5'0f'1071);
  Pair pair;
  for (std::uint32_t len = 0; len <= kMaxLen; ++len) {
    const std::vector<std::uint8_t> data = random_bytes(rng, len);
    const std::uint32_t accs[] = {0u, 0xffffffffu,
                                  static_cast<std::uint32_t>(rng.next())};
    for (std::size_t k = 0; k < std::size(kOps); ++k) {
      const auto src_align = static_cast<std::uint32_t>((len + 5 * k) % 16);
      const auto dst_align = static_cast<std::uint32_t>((3 * len + k) % 16);
      if (!pair.check(kOps[k], src_align, dst_align, accs[(len + k) % 3],
                      data)) {
        return;
      }
    }
  }
}

TEST(WideCksum, EveryAlignmentAndStartingAccumulator) {
  util::Rng rng(0xa11'9e);
  Pair pair;
  const std::uint32_t lens[] = {0,  1,  2,   3,   4,   5,    7,    8,
                                9,  15, 16,  17,  31,  63,   64,   65,
                                255, 1456, 1460, 1500, 4093, 8192, 9000};
  for (const std::uint32_t len : lens) {
    for (std::uint32_t src_align = 0; src_align < 16; ++src_align) {
      const std::vector<std::uint8_t> data = random_bytes(rng, len);
      const std::uint32_t accs[] = {0u, 0xffffffffu,
                                    static_cast<std::uint32_t>(rng.next())};
      for (const std::uint32_t acc0 : accs) {
        for (const Op op : kOps) {
          const auto dst_align =
              static_cast<std::uint32_t>((src_align * 7 + len) % 16);
          if (!pair.check(op, src_align, dst_align, acc0, data)) return;
        }
      }
    }
  }
}

TEST(WideCksum, CarryEdgePatterns) {
  // All-zero data (the only input that can leave a zero accumulator at
  // zero), all-0xff data (every fold carries) and data summing to a
  // multiple of 2^32 - 1 (the serial loop's negative zero).
  util::Rng rng(0xedfe);
  Pair pair;
  for (std::uint32_t len = 0; len <= 600; len += len < 40 ? 1 : 37) {
    std::vector<std::vector<std::uint8_t>> patterns = {
        std::vector<std::uint8_t>(len, 0x00),
        std::vector<std::uint8_t>(len, 0xff)};
    if (len >= 4) patterns.push_back(zero_mod_bytes(rng, len));
    const std::uint32_t accs[] = {0u, 0xffffffffu,
                                  static_cast<std::uint32_t>(rng.next())};
    for (const auto& data : patterns) {
      for (const std::uint32_t acc0 : accs) {
        for (const Op op : kOps) {
          const auto align = static_cast<std::uint32_t>(rng.below(16));
          if (!pair.check(op, align, 15 - align, acc0, data)) return;
        }
      }
    }
  }
  for (const std::uint32_t len : {4000u, 8996u, 9000u}) {
    const std::vector<std::uint8_t> data = zero_mod_bytes(rng, len);
    for (const Op op : kOps) {
      if (!pair.check(op, 3, 9, 0, data)) return;
    }
  }
}

TEST(WideCksum, HelperNamesTheSerialResult) {
  // The identity directly: zero stays zero, a nonzero multiple of
  // 2^32 - 1 folds to 0xffffffff, and anything else to its residue.
  const std::vector<std::uint8_t> zeros(12, 0);
  EXPECT_EQ(util::cksum32_accumulate_words(0, zeros), 0u);
  EXPECT_EQ(util::cksum32_accumulate_words(0xffffffffu, zeros), 0xffffffffu);
  const std::uint8_t split[] = {0x00, 0x00, 0x00, 0x80,   // 0x80000000
                                0xff, 0xff, 0xff, 0x7f};  // 0x7fffffff
  EXPECT_EQ(util::cksum32_accumulate_words(0, split), 0xffffffffu);
  EXPECT_EQ(util::cksum32_accumulate_words(1, split), 1u);
  const std::uint8_t tail[] = {0x01, 0x02, 0x03};
  EXPECT_EQ(util::cksum32_accumulate_words(0, tail), 0x030201u);
}

}  // namespace
}  // namespace ash::sim
