// util::dcache_words against the per-word util::dcache_access loop it
// must reproduce exactly: cycles, hit/miss counters and every tag, over
// every line size from 1 to 128 bytes, ranges past the cache's line count,
// stream index ranges that touch, overlap or wrap mod n_lines, same-index
// pairs, unaligned starts, 1-3 byte tails, and ranges that end at (or
// wrap past) the top of the 32-bit address space.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/dcache.hpp"
#include "util/rng.hpp"

namespace ash::util {
namespace {

/// One cache model's state and a view of it.
struct Model {
  Model(std::uint32_t line_shift, std::uint32_t lines,
        std::uint64_t read_miss_penalty, std::uint64_t write_cost)
      : tags(lines, 0),
        line_shift(line_shift),
        read_miss_penalty(read_miss_penalty),
        write_cost(write_cost) {}

  DcacheView view() {
    const auto index_mask = static_cast<std::uint32_t>(tags.size() - 1);
    return {tags.data(), line_shift, index_mask, read_miss_penalty,
            write_cost,  &hits,      &misses};
  }

  std::vector<std::uint32_t> tags;
  std::uint32_t line_shift;
  std::uint64_t read_miss_penalty;
  std::uint64_t write_cost;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// The contract dcache_words must reproduce exactly.
std::uint64_t reference_words(const DcacheView& v, std::uint32_t src,
                              std::uint32_t dst, std::uint32_t len,
                              bool reads, bool writes) {
  std::uint64_t extra = 0;
  for (std::uint32_t off = 0; off < len; off += 4) {
    const std::uint32_t n = len - off < 4 ? len - off : 4;
    if (reads) extra += dcache_access(v, src + off, n, false);
    if (writes) extra += dcache_access(v, dst + off, n, true);
  }
  return extra;
}

/// Runs one loop through both paths on identical models; false (with a
/// gtest failure) on the first difference.
bool same_as_reference(Model& fast, Model& ref, std::uint32_t src,
                       std::uint32_t dst, std::uint32_t len, bool reads,
                       bool writes) {
  const std::uint64_t got =
      dcache_words(fast.view(), src, dst, len, reads, writes);
  const std::uint64_t want =
      reference_words(ref.view(), src, dst, len, reads, writes);
  const bool same = got == want && fast.hits == ref.hits &&
                    fast.misses == ref.misses && fast.tags == ref.tags;
  EXPECT_TRUE(same) << "src=" << src << " dst=" << dst << " len=" << len
                    << " reads=" << reads << " writes=" << writes
                    << " line=" << (1u << fast.line_shift)
                    << " lines=" << fast.tags.size() << " cycles " << got
                    << " vs " << want << " hits " << fast.hits << " vs "
                    << ref.hits << " misses " << fast.misses << " vs "
                    << ref.misses;
  return same;
}

/// Fill both models with the same random resident lines (about half the
/// indices), each a line whose index matches, near `around`.
void warm(Model& a, Model& b, Rng& rng, std::uint32_t around) {
  const auto lines = static_cast<std::uint32_t>(a.tags.size());
  const std::uint32_t base_line = around >> a.line_shift;
  for (std::uint32_t i = 0; i < lines; ++i) {
    std::uint32_t tag = 0;
    if (rng.chance(1, 2)) {
      // A line within a few cache sizes of `around` that maps to index i.
      const std::uint32_t line =
          ((base_line + static_cast<std::uint32_t>(rng.below(4)) * lines) &
           ~(lines - 1)) |
          i;
      tag = line + 1;
    }
    a.tags[i] = tag;
    b.tags[i] = tag;
  }
}

constexpr std::uint32_t kLineCounts[] = {1, 2, 4, 16};

TEST(DcacheKernel, PlacedStreamsOnEveryLineSize) {
  // Every line size 1-128 B; dst placed so the two streams' index ranges
  // are disjoint, touch, overlap by one line, wrap mod n_lines, or share
  // an index with a different tag; lengths from a tail to past n_lines.
  Rng rng(0xdcac'0001);
  for (std::uint32_t shift = 0; shift <= 7; ++shift) {
    const std::uint32_t line = 1u << shift;
    for (const std::uint32_t lines : kLineCounts) {
      const std::uint32_t size = line * lines;
      Model fast(shift, lines, 12, shift % 3);
      Model ref(shift, lines, 12, shift % 3);
      const std::uint32_t lens[] = {0,    1,        3,           4,
                                    5,    8,        line,        line + 4,
                                    size, size + 3, size + line, 2 * size + 8,
                                    3 * size + 2};
      for (const std::uint32_t len : lens) {
        // Bytes of the lines a stream of `len` bytes covers from a line
        // start; from mid-line it covers one line more.
        const std::uint32_t span = (len + line - 1) / line * line;
        const std::uint32_t deltas[] = {
            0,                    // identical
            4,                    // overlapping by all but a word
            span,                 // dst's index range starts where src's ends
            span - line,          // overlaps by one line
            span + line,          // a one-line gap
            size,                 // same indices, different tags
            size + 4,             // same indices, skewed by a word
            0u - span,            // dst's range ends where src's starts
            size - line,          // wraps round to the line before src
            5 * size + line / 2,  // far away, mid-line
        };
        for (const std::uint32_t d : deltas) {
          for (const std::uint32_t src_off : {0u, 1u, 2u, 4u, line - 1}) {
            const std::uint32_t src = 0x10000 + 3 * size + src_off;
            const std::uint32_t dst = src + d;
            for (int mode = 0; mode < 3; ++mode) {
              warm(fast, ref, rng, src);
              if (!same_as_reference(fast, ref, src, dst, len, mode != 1,
                                     mode != 0)) {
                return;
              }
            }
          }
        }
      }
    }
  }
}

TEST(DcacheKernel, RangesAtTheTopOfTheAddressSpace) {
  // Ranges ending exactly at 2^32 (the last line's end overflows 32 bits)
  // and ranges wrapping past it, for every line size.
  Rng rng(0xdcac'0003);
  for (std::uint32_t shift = 0; shift <= 7; ++shift) {
    for (const std::uint32_t lines : kLineCounts) {
      const std::uint32_t size = (1u << shift) * lines;
      Model fast(shift, lines, 9, 1);
      Model ref(shift, lines, 9, 1);
      for (const std::uint32_t len : {4u, 8u, 12u, size, size + 4, 3 * size}) {
        const std::uint32_t top = 0u - len;  // [top, 2^32)
        const std::uint32_t starts[][2] = {
            {top, 0x1000},            // reads end at the top
            {0x1000, top},            // writes end at the top
            {top, top},               // both, identical
            {top, top - size},        // both, same indices
            {top + 4, 0x2000},        // reads wrap past the top
            {0x2000, top + 8},        // writes wrap past the top
            {top - 2, top - 1},       // unaligned, crossing the top
        };
        for (const auto& p : starts) {
          for (int mode = 0; mode < 3; ++mode) {
            warm(fast, ref, rng, p[0]);
            if (!same_as_reference(fast, ref, p[0], p[1], len, mode != 1,
                                   mode != 0)) {
              return;
            }
          }
        }
      }
    }
  }
}

TEST(DcacheKernel, DisjointStreamsChargePerLine) {
  // 64 lines of 16 B, cold. Reads of [0, 256): 16 lines miss once and
  // fill, 48 later words hit. Writes of [0x1100, 0x1200) sit on indices
  // 16-31, clear of the reads' 0-15, and never fill: all 64 miss.
  Model m(4, 64, 12, 1);
  EXPECT_EQ(dcache_words(m.view(), 0, 0x1100, 256, true, true),
            16u * 12 + 64u * 1);
  EXPECT_EQ(m.misses, 16u + 64u);
  EXPECT_EQ(m.hits, 48u);
  // Reads of the lines just written miss (writes never fill); writes to
  // lines the first reads filled hit.
  EXPECT_EQ(dcache_words(m.view(), 0x1100, 0x40, 64, true, true),
            4u * 12 + 16u * 1);
  EXPECT_EQ(m.misses, 80u + 4u);
  EXPECT_EQ(m.hits, 48u + 12u + 16u);
}

TEST(DcacheKernel, SingleAccessAtTheTopTerminates) {
  // One-byte lines: the last line is 0xffffffff, whose successor wraps
  // to line 0; the access touches its four lines once each.
  Model m(0, 4, 5, 0);
  dcache_access(m.view(), 0xfffffffcu, 4, false);
  EXPECT_EQ(m.misses + m.hits, 4u);
}

}  // namespace
}  // namespace ash::util
