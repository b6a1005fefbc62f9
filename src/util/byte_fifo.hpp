// Contiguous byte FIFO: a vector plus a head offset.
//
// Bytes are appended at the back and taken from the front with memcpy.
// Taking only advances the head; the consumed prefix is reclaimed on a
// later append, either by resetting an emptied buffer or by sliding the
// live bytes to the front once the prefix is at least as long as they
// are and the append would otherwise grow the vector (so a compaction
// moves no more bytes than were taken since the last one). No storage
// exists before the first append, and release() returns it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace ash::util {

class ByteFifo {
 public:
  std::size_t size() const noexcept { return buf_.size() - head_; }
  bool empty() const noexcept { return head_ == buf_.size(); }

  /// The live bytes, oldest first. Valid until the next append().
  std::span<const std::uint8_t> bytes() const noexcept {
    return {buf_.data() + head_, size()};
  }

  void append(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    const std::size_t live = size();
    if (live == 0) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= live && buf_.size() + data.size() > buf_.capacity()) {
      std::memmove(buf_.data(), buf_.data() + head_, live);
      buf_.resize(live);
      head_ = 0;
    }
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Drop up to `n` bytes from the front; returns how many were dropped.
  /// The dropped bytes stay readable through an earlier bytes() span
  /// until the next append().
  std::size_t consume(std::size_t n) noexcept {
    if (n > size()) n = size();
    head_ += n;
    return n;
  }

  /// Copy up to `max_len` bytes from the front to `out` and drop them.
  std::size_t take(std::uint8_t* out, std::size_t max_len) noexcept {
    const std::size_t n = max_len < size() ? max_len : size();
    if (n > 0) std::memcpy(out, buf_.data() + head_, n);
    head_ += n;
    return n;
  }

  /// Empty the FIFO and free its storage.
  void release() noexcept {
    std::vector<std::uint8_t>().swap(buf_);
    head_ = 0;
  }

  std::size_t capacity() const noexcept { return buf_.capacity(); }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t head_ = 0;
};

}  // namespace ash::util
