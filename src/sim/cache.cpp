#include "sim/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ash::sim {
namespace {

std::uint32_t checked_lines(const CacheConfig& config) {
  const std::uint32_t lines =
      config.line_bytes == 0 ? 0 : config.size_bytes / config.line_bytes;
  if (!std::has_single_bit(config.line_bytes) ||
      !std::has_single_bit(lines)) {
    throw std::invalid_argument(
        "Cache: line size and line count must be powers of two");
  }
  return lines;
}

}  // namespace

Cache::Cache(const CacheConfig& config)
    : config_(config),
      n_lines_(checked_lines(config)),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config.line_bytes))),
      index_mask_(n_lines_ - 1),
      tags_(n_lines_, 0) {}

Cycles Cache::line_access(std::uint32_t line, bool is_write,
                          bool* hit) noexcept {
  std::uint32_t& tag = tags_[line & index_mask_];
  *hit = tag == line + 1;
  if (*hit) {
    ++hits_;
    return is_write ? config_.write_cost : 0;
  }
  ++misses_;
  // Write-through, no write-allocate: a store goes to memory without
  // fetching the line.
  if (is_write) return config_.write_cost;
  tag = line + 1;
  return config_.read_miss_penalty;
}

Cycles Cache::access(std::uint32_t addr, std::uint32_t len, bool is_write) {
  Cycles extra = 0;
  bool hit = false;
  const std::uint32_t first = addr >> line_shift_;
  const std::uint32_t last = (addr + (len ? len - 1 : 0)) >> line_shift_;
  for (std::uint32_t line = first; line <= last; ++line) {
    extra += line_access(line, is_write, &hit);
  }
  return extra;
}

Cycles Cache::words(std::uint32_t src, std::uint32_t dst, std::uint32_t len,
                    bool reads, bool writes) {
  Cycles extra = 0;
  const std::uint32_t line_bytes = config_.line_bytes;
  const std::uint32_t offset_mask = line_bytes - 1;
  std::uint32_t off = 0;
  while (off < len) {
    // Whole words from `off` on that keep both streams in their lines.
    std::uint32_t run = (len - off) / 4;
    if (reads) {
      run = std::min(run, (line_bytes - ((src + off) & offset_mask)) / 4);
    }
    if (writes) {
      run = std::min(run, (line_bytes - ((dst + off) & offset_mask)) / 4);
    }
    if (run == 0) {  // a word straddling a line, or the tail
      const std::uint32_t n = std::min(4u, len - off);
      if (reads) extra += access(src + off, n, false);
      if (writes) extra += access(dst + off, n, true);
      off += n;
      continue;
    }
    const std::uint64_t rest = run - 1;
    bool hit = false;
    if (reads) {
      extra += line_access((src + off) >> line_shift_, false, &hit);
      hits_ += rest;
    }
    if (writes) {
      extra += line_access((dst + off) >> line_shift_, true, &hit);
      (hit ? hits_ : misses_) += rest;
      extra += rest * config_.write_cost;
    }
    off += 4 * run;
  }
  return extra;
}

bool Cache::contains(std::uint32_t addr) const {
  const std::uint32_t line = addr >> line_shift_;
  return tags_[line & index_mask_] == line + 1;
}

void Cache::flush_all() { tags_.assign(n_lines_, 0); }

void Cache::invalidate_range(std::uint32_t addr, std::uint32_t len) {
  if (len == 0) return;
  const std::uint32_t first = addr >> line_shift_;
  const std::uint32_t last = (addr + len - 1) >> line_shift_;
  if (last - first + 1 >= n_lines_) {
    flush_all();
    return;
  }
  for (std::uint32_t line = first; line <= last; ++line) {
    std::uint32_t& tag = tags_[line & index_mask_];
    if (tag == line + 1) tag = 0;
  }
}

void Cache::touch_range(std::uint32_t addr, std::uint32_t len) {
  if (len == 0) return;
  const std::uint32_t first = addr >> line_shift_;
  const std::uint32_t last = (addr + len - 1) >> line_shift_;
  for (std::uint32_t line = first; line <= last; ++line) {
    tags_[line & index_mask_] = line + 1;
  }
}

}  // namespace ash::sim
