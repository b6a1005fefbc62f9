#include "sim/cache.hpp"

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
