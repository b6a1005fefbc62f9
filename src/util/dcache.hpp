// Exact accounting kernel of a direct-mapped, write-through, no-write-
// allocate data-cache model with power-of-two geometry.
//
// sim::Cache owns the model's state; engines that charge memory traffic
// inline (the JIT's loads, stores and fused DILP loops) work on the same
// state through a DcacheView. Every engine charges through the functions
// below, so the model has one definition of a hit, a miss and a fill.
#pragma once

#include <cstdint>

namespace ash::util {

/// Raw view of one cache model's state. Tags hold line + 1 (0 = invalid);
/// `index_mask` is n_lines - 1 and the line size is 1 << line_shift.
/// A null `tags` means "no model offered".
struct DcacheView {
  std::uint32_t* tags = nullptr;
  std::uint32_t line_shift = 0;
  std::uint32_t index_mask = 0;
  std::uint64_t read_miss_penalty = 0;
  std::uint64_t write_cost = 0;
  std::uint64_t* hits = nullptr;
  std::uint64_t* misses = nullptr;

  std::uint32_t line_bytes() const noexcept { return 1u << line_shift; }
  std::uint32_t n_lines() const noexcept { return index_mask + 1; }
};

/// Account one access of `len` bytes at `addr` (every line it touches,
/// in address order); returns the extra cycles beyond the instruction's
/// base cost. A read miss costs the penalty and fills the line; a write
/// costs write_cost, hit or miss, and never fills. An access whose range
/// wraps past the top of the 32-bit space touches no line.
inline std::uint64_t dcache_access(const DcacheView& v, std::uint32_t addr,
                                   std::uint32_t len, bool is_write) noexcept {
  const std::uint32_t first = addr >> v.line_shift;
  const std::uint32_t last = (addr + (len ? len - 1 : 0)) >> v.line_shift;
  if (last < first) return 0;
  std::uint64_t extra = 0;
  for (std::uint32_t line = first;; ++line) {
    std::uint32_t& tag = v.tags[line & v.index_mask];
    if (tag == line + 1) {
      ++*v.hits;
      if (is_write) extra += v.write_cost;
    } else {
      ++*v.misses;
      if (is_write) {
        extra += v.write_cost;
      } else {
        extra += v.read_miss_penalty;
        tag = line + 1;
      }
    }
    if (line == last) break;
  }
  return extra;
}

/// Account a whole word loop over [src, src+len) and [dst, dst+len).
/// Exactly equivalent (cycles, counters, tags) to
///   for (off = 0; off < len; off += 4) {
///     n = min(4, len - off);
///     if (reads)  dcache_access(v, src + off, n, false);
///     if (writes) dcache_access(v, dst + off, n, true);
///   }
/// but charged per line, not per word; DESIGN.md §5 gives the argument.
std::uint64_t dcache_words(const DcacheView& v, std::uint32_t src,
                           std::uint32_t dst, std::uint32_t len, bool reads,
                           bool writes) noexcept;

}  // namespace ash::util
