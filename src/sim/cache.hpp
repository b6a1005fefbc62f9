// Direct-mapped data-cache model of the DECstation 5000/240 (64 KB,
// write-through, no write-allocate).
//
// The paper's throughput experiments (Tables III and IV) are memory-system
// experiments: the win from eliminating copies and from integrated layer
// processing is precisely the cache/memory traffic avoided. This model
// charges a line-fill penalty on read misses and tracks tags so those
// effects emerge from the simulation rather than being hard-coded.
//
// Geometry is a power of two in both line size and line count (the
// constructor rejects anything else), so indexing is shift/mask.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/dcache.hpp"

namespace ash::sim {

struct CacheConfig {
  std::uint32_t size_bytes = 64 * 1024;  // 64 KB D-cache (5000/240)
  std::uint32_t line_bytes = 16;
  /// Cycles to fill a line from memory on a read miss (calibrated so the
  /// canonical 4 KB copy runs at the paper's 20 MB/s on the 40 MHz CPU).
  Cycles read_miss_penalty = 12;
  /// Extra cycles on a write when the write buffer backs up; the 240's
  /// write-through buffer mostly hides stores, so this is small.
  Cycles write_cost = 0;
};

class Cache {
 public:
  /// Throws std::invalid_argument unless `line_bytes` and the line count
  /// `size_bytes / line_bytes` are both powers of two.
  explicit Cache(const CacheConfig& config = {});

  /// Account one access of `len` bytes at `addr`; returns the extra cycles
  /// beyond the instruction's base cost. Reads fill lines; writes are
  /// write-through/no-allocate (they update an already-present line but
  /// do not fetch absent ones).
  Cycles access(std::uint32_t addr, std::uint32_t len, bool is_write) {
    return util::dcache_access(raw(), addr, len, is_write);
  }

  /// Account a whole word loop over [src, src+len) and [dst, dst+len):
  /// exactly (cycles, counters, tags) the per-word loop
  ///   for (off = 0; off < len; off += 4) {
  ///     n = min(4, len - off);
  ///     if (reads)  access(src + off, n, false);
  ///     if (writes) access(dst + off, n, true);
  ///   }
  /// charged per line by util::dcache_words.
  Cycles words(std::uint32_t src, std::uint32_t dst, std::uint32_t len,
               bool reads, bool writes) {
    return util::dcache_words(raw(), src, dst, len, reads, writes);
  }

  /// True if the line containing `addr` is resident.
  bool contains(std::uint32_t addr) const;

  /// Drop every line (the experiments' "cache flush at every iteration").
  void flush_all();

  /// Drop lines overlapping [addr, addr+len) — e.g. after device DMA, the
  /// driver's "software cache flush of the message location".
  void invalidate_range(std::uint32_t addr, std::uint32_t len);

  /// Preload lines for [addr, addr+len) as if read (test setup helper).
  void touch_range(std::uint32_t addr, std::uint32_t len);

  const CacheConfig& config() const noexcept { return config_; }

  // Statistics (cumulative).
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }

  /// Raw view of the model's state for engines that charge memory
  /// traffic inline (vcode::Env::FastMem). Valid while the cache lives;
  /// every charge made through it goes through util::dcache_access or
  /// util::dcache_words, as this class's own do.
  util::DcacheView raw() noexcept {
    return {tags_.data(), line_shift_, index_mask_, config_.read_miss_penalty,
            config_.write_cost, &hits_, &misses_};
  }

 private:
  CacheConfig config_;
  std::uint32_t n_lines_;
  std::uint32_t line_shift_;  // log2(line_bytes)
  std::uint32_t index_mask_;  // n_lines - 1
  std::vector<std::uint32_t> tags_;  // tag+1; 0 = invalid
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ash::sim
