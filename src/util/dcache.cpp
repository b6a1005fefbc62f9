#include "util/dcache.hpp"

#include <algorithm>

namespace ash::util {
namespace {

/// One access to the single line `line`; `*hit` reports its outcome.
std::uint64_t line_access(const DcacheView& v, std::uint32_t line,
                          bool is_write, bool* hit) noexcept {
  std::uint32_t& tag = v.tags[line & v.index_mask];
  *hit = tag == line + 1;
  if (*hit) {
    ++*v.hits;
    return is_write ? v.write_cost : 0;
  }
  ++*v.misses;
  if (is_write) return v.write_cost;
  tag = line + 1;
  return v.read_miss_penalty;
}

/// Word-aligned and not wrapping past the top of the 32-bit space.
bool plain_stream(std::uint32_t addr, std::uint32_t len) noexcept {
  return (addr & 3) == 0 &&
         static_cast<std::uint64_t>(addr) + len <= (1ull << 32);
}

/// True when the loop's streams can be charged one after the other: every
/// word sits in one line, and no read fill can change a tag that a write
/// looks at (one stream only, or line-index ranges disjoint mod n_lines).
bool separable(const DcacheView& v, std::uint32_t src, std::uint32_t dst,
               std::uint32_t len, bool reads, bool writes) noexcept {
  if (v.line_shift < 2 || (len & 3) != 0) return false;
  if (reads && !plain_stream(src, len)) return false;
  if (writes && !plain_stream(dst, len)) return false;
  if (!reads || !writes) return true;
  const std::uint32_t s = v.line_shift;
  const std::uint32_t rf = src >> s;
  const std::uint32_t wf = dst >> s;
  const std::uint32_t r_lines = ((src + (len - 1)) >> s) - rf + 1;
  const std::uint32_t w_lines = ((dst + (len - 1)) >> s) - wf + 1;
  // Two arcs of the index circle are disjoint iff neither starts inside
  // the other; an arc of n_lines or more lines fails both tests.
  return ((wf - rf) & v.index_mask) >= r_lines &&
         ((rf - wf) & v.index_mask) >= w_lines;
}

/// The read stream alone: each line misses on its first touch iff its tag
/// differs, and the miss fills it; the line's later words hit.
std::uint64_t read_walk(const DcacheView& v, std::uint32_t addr,
                        std::uint32_t len) noexcept {
  const std::uint32_t first = addr >> v.line_shift;
  const std::uint32_t last = (addr + (len - 1)) >> v.line_shift;
  std::uint64_t misses = 0;
  for (std::uint32_t line = first; line <= last; ++line) {
    std::uint32_t& tag = v.tags[line & v.index_mask];
    misses += tag != line + 1;
    tag = line + 1;
  }
  *v.misses += misses;
  *v.hits += len / 4 - misses;
  return misses * v.read_miss_penalty;
}

/// The write stream alone: writes never change tags, so every word of a
/// line has the outcome of the line's tag as it stands.
std::uint64_t write_walk(const DcacheView& v, std::uint32_t addr,
                         std::uint32_t len) noexcept {
  const std::uint32_t s = v.line_shift;
  const std::uint32_t first = addr >> s;
  const std::uint32_t last = (addr + (len - 1)) >> s;
  const auto hit = [&v](std::uint32_t line) -> std::uint64_t {
    return v.tags[line & v.index_mask] == line + 1;
  };
  std::uint64_t hit_lines = 0;
  for (std::uint32_t line = first; line <= last; ++line) {
    hit_lines += hit(line);
  }
  // Whole lines' words, less the words of the first and last lines that
  // lie outside [addr, addr+len); the last line's end needs 64 bits.
  const std::uint64_t before = (addr - (first << s)) / 4;
  const std::uint64_t after =
      (((static_cast<std::uint64_t>(last) + 1) << s) - addr - len) / 4;
  const std::uint64_t hit_words = (hit_lines << (s - 2)) -
                                  hit(first) * before - hit(last) * after;
  const std::uint64_t words = len / 4;
  *v.hits += hit_words;
  *v.misses += words - hit_words;
  return words * v.write_cost;
}

/// The general case: the two streams interleaved, one run at a time, a
/// run being the words from `off` on that keep both streams inside one
/// line. Only a read miss fills, and it happens at the run's first word,
/// so the run's later reads hit; writes never change tags, so each later
/// write repeats the first write's outcome.
std::uint64_t interleaved(const DcacheView& v, std::uint32_t src,
                          std::uint32_t dst, std::uint32_t len, bool reads,
                          bool writes) noexcept {
  std::uint64_t extra = 0;
  const std::uint32_t line_bytes = v.line_bytes();
  const std::uint32_t offset_mask = line_bytes - 1;
  std::uint32_t off = 0;
  while (off < len) {
    std::uint32_t run = (len - off) / 4;
    if (reads) {
      run = std::min(run, (line_bytes - ((src + off) & offset_mask)) / 4);
    }
    if (writes) {
      run = std::min(run, (line_bytes - ((dst + off) & offset_mask)) / 4);
    }
    if (run == 0) {  // a word straddling a line, or the tail
      const std::uint32_t n = std::min(4u, len - off);
      if (reads) extra += dcache_access(v, src + off, n, false);
      if (writes) extra += dcache_access(v, dst + off, n, true);
      off += n;
      continue;
    }
    const std::uint64_t rest = run - 1;
    bool hit = false;
    if (reads) {
      extra += line_access(v, (src + off) >> v.line_shift, false, &hit);
      *v.hits += rest;
    }
    if (writes) {
      extra += line_access(v, (dst + off) >> v.line_shift, true, &hit);
      *(hit ? v.hits : v.misses) += rest;
      extra += rest * v.write_cost;
    }
    off += 4 * run;
  }
  return extra;
}

}  // namespace

std::uint64_t dcache_words(const DcacheView& v, std::uint32_t src,
                           std::uint32_t dst, std::uint32_t len, bool reads,
                           bool writes) noexcept {
  if (len == 0 || (!reads && !writes)) return 0;
  if (!separable(v, src, dst, len, reads, writes)) {
    return interleaved(v, src, dst, len, reads, writes);
  }
  std::uint64_t extra = 0;
  if (reads) extra += read_walk(v, src, len);
  if (writes) extra += write_walk(v, dst, len);
  return extra;
}

}  // namespace ash::util
