// util::ByteFifo against a std::deque model: random interleaved appends,
// takes and consumes of every size, including ones that empty the FIFO
// and ones that force compaction or growth.
#include "util/byte_fifo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "util/rng.hpp"

namespace ash::util {
namespace {

bool same_bytes(const ByteFifo& f, const std::deque<std::uint8_t>& model) {
  const auto b = f.bytes();
  return f.size() == model.size() && f.empty() == model.empty() &&
         b.size() == model.size() &&
         std::equal(b.begin(), b.end(), model.begin());
}

TEST(ByteFifo, NoStorageBeforeTheFirstByte) {
  ByteFifo f;
  EXPECT_EQ(f.capacity(), 0u);
  f.append({});
  EXPECT_EQ(f.capacity(), 0u);
  EXPECT_TRUE(f.empty());
  std::uint8_t out = 0;
  EXPECT_EQ(f.take(&out, 1), 0u);
  EXPECT_EQ(f.consume(3), 0u);
  const std::uint8_t one[] = {42};
  f.append(one);
  EXPECT_GE(f.capacity(), 1u);
  f.release();
  EXPECT_EQ(f.capacity(), 0u);
  EXPECT_TRUE(f.empty());
}

TEST(ByteFifo, RandomOpsMatchDequeModel) {
  Rng rng(0xf1f0);
  for (int round = 0; round < 200; ++round) {
    ByteFifo f;
    std::deque<std::uint8_t> model;
    std::uint8_t next = static_cast<std::uint8_t>(round);
    std::size_t max_cap = 0, max_live = 0;
    // Chunk sizes from single bytes to several KB, biased per round so
    // some rounds fill up and others hover near empty.
    const std::uint64_t max_chunk = 1u << rng.range(0, 13);
    const std::uint64_t append_bias = rng.range(1, 3);
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t pick = rng.below(append_bias + 2);
      const auto n = static_cast<std::size_t>(rng.below(max_chunk + 1));
      if (pick < append_bias) {
        std::vector<std::uint8_t> chunk(n);
        for (auto& b : chunk) b = next++;
        f.append(chunk);
        model.insert(model.end(), chunk.begin(), chunk.end());
      } else if (pick == append_bias) {
        std::vector<std::uint8_t> out(n + 1, 0xee);
        const std::size_t got = f.take(out.data(), n);
        const std::size_t want = std::min(n, model.size());
        ASSERT_EQ(got, want);
        ASSERT_TRUE(std::equal(out.begin(), out.begin() + got,
                               model.begin()));
        ASSERT_EQ(out[got], 0xee);  // nothing written past the take
        model.erase(model.begin(), model.begin() + got);
      } else {
        const std::size_t got = f.consume(n);
        ASSERT_EQ(got, std::min(n, model.size()));
        model.erase(model.begin(), model.begin() + got);
      }
      ASSERT_TRUE(same_bytes(f, model)) << "round " << round << " op " << op;
      max_cap = std::max(max_cap, f.capacity());
      max_live = std::max(max_live, model.size());
    }
    // Compaction bounds the storage by the live bytes, not by the
    // stream's length.
    EXPECT_LE(max_cap, 4 * max_live + 2 * max_chunk + 16) << round;
  }
}

TEST(ByteFifo, ConsumedBytesStayReadableUntilTheNextAppend) {
  ByteFifo f;
  const std::uint8_t data[] = {1, 2, 3, 4, 5};
  f.append(data);
  const auto seg = f.bytes().first(5);
  EXPECT_EQ(f.consume(5), 5u);
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(std::equal(seg.begin(), seg.end(), data));
  const std::uint8_t more[] = {6, 7};
  f.append(more);  // the emptied buffer is reused from its start
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f.bytes()[0], 6);
  EXPECT_EQ(f.bytes()[1], 7);
}

}  // namespace
}  // namespace ash::util
