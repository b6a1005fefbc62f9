// TcpEngine scale mechanics: the sharded connection table, the listener
// SYN backlog, and many concurrent flows multiplexed over one link
// binding — the c10k bench's machinery at a test-sized scale.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/rx_queue.hpp"
#include "proto/an2_link.hpp"
#include "proto/tcp_engine.hpp"
#include "sim/kernel.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace ash::proto {
namespace {

using sim::Node;
using sim::Process;
using sim::Simulator;
using sim::Task;
using sim::us;

const Ipv4Addr kIpA = Ipv4Addr::of(10, 0, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::of(10, 0, 0, 2);

An2Link::Config big_link_cfg() {
  An2Link::Config cfg;
  cfg.rx_buffers = 256;  // absorb whole SYN/ACK waves
  cfg.buf_size = 1536;
  return cfg;
}

TEST(TcpEngineScale, ManyConnectionsEchoAndShardByFlowHash) {
  // 128 concurrent flows from one client engine to one server engine:
  // every one must establish, echo a message, and tear down; while all
  // are up, the connection table must be sharded exactly where the RX
  // steering hash says each flow belongs.
  constexpr std::size_t kConns = 128;
  constexpr std::size_t kShards = 4;
  const std::string msg = "the fast path belongs to the application";

  Simulator sim;
  Node& na = sim.add_node("a");
  Node& nb = sim.add_node("b");
  net::An2Device dev_a(na), dev_b(nb);
  dev_a.connect(dev_b);

  std::size_t echoed_ok = 0;
  std::uint64_t accepted = 0;
  bool server_done = false, client_done = false;
  bool shards_match = false, shards_spread = false, sizes_sum = false;
  TcpEngine::Stats stats_a{}, stats_b{};

  nb.kernel().spawn("server", [&](Process& self) -> Task {
    An2Link link(self, dev_b, big_link_cfg());
    TcpEngine::Config cfg;
    cfg.local_ip = kIpB;
    cfg.shards = kShards;
    TcpEngine eng(link, cfg);
    TcpEngine::ListenConfig lc;
    lc.backlog = 256;
    lc.callbacks.on_readable = [&](TcpEngine::ConnId id) {
      std::uint8_t buf[256];
      for (;;) {
        const std::size_t n = eng.read(id, buf, sizeof buf);
        if (n == 0) break;
        eng.write(id, {buf, n});  // echo
      }
      if (eng.at_eof(id)) eng.close(id);
    };
    TcpEngine::TcpListener& l = eng.listen(80, lc);
    co_await eng.run(server_done, self.node().now() + us(3e6));
    accepted = l.accepted;
    stats_b = eng.stats();
  });

  na.kernel().spawn("client", [&](Process& self) -> Task {
    An2Link link(self, dev_a, big_link_cfg());
    TcpEngine::Config cfg;
    cfg.local_ip = kIpA;
    cfg.shards = kShards;
    TcpEngine eng(link, cfg);

    std::size_t established = 0;
    std::unordered_map<TcpEngine::ConnId, std::string> echoes;
    std::unordered_set<TcpEngine::ConnId> finished;
    std::vector<TcpEngine::ConnId> ids;
    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId) { ++established; };
    cbs.on_readable = [&](TcpEngine::ConnId id) {
      std::uint8_t buf[256];
      for (;;) {
        const std::size_t n = eng.read(id, buf, sizeof buf);
        if (n == 0) break;
        echoes[id].append(reinterpret_cast<const char*>(buf), n);
      }
      // The client initiates close: full echo received -> FIN. The server
      // answers with its own close on EOF.
      if (echoes[id].size() >= msg.size() && finished.insert(id).second) {
        if (echoes[id] == msg) ++echoed_ok;
        eng.close(id);
      }
    };

    for (std::size_t i = 0; i < kConns; ++i) {
      const auto port = static_cast<std::uint16_t>(4000 + i);
      const TcpEngine::ConnId id = eng.connect(kIpB, 80, port, cbs);
      EXPECT_NE(id, 0u);
      ids.push_back(id);
    }
    // Wait until every flow is up, then audit the table's sharding.
    const sim::Cycles limit = self.node().now() + us(2e6);
    while (established < kConns && self.node().now() < limit) {
      const bool got = co_await eng.step(us(500.0));
      (void)got;
    }
    EXPECT_EQ(established, kConns);

    shards_match = true;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const FlowKey key{kIpB, 80, static_cast<std::uint16_t>(4000 + i)};
      const std::size_t want = cfg.steering.pick(
          flow_channel(kIpA, key), nullptr, kShards);
      shards_match &= eng.shard_of(ids[i]) == want;
    }
    const std::vector<std::size_t> sizes = eng.shard_sizes();
    std::size_t nonempty = 0, total = 0;
    for (const std::size_t s : sizes) {
      nonempty += s > 0 ? 1 : 0;
      total += s;
    }
    shards_spread = nonempty >= 2;  // FNV spreads 128 flows past 1 shard
    sizes_sum = total == eng.open_connections();

    for (const TcpEngine::ConnId id : ids) {
      const bool ok = eng.write(
          id, {reinterpret_cast<const std::uint8_t*>(msg.data()),
               msg.size()});
      EXPECT_TRUE(ok);
    }
    while (eng.open_connections() > 0 && self.node().now() < limit) {
      const bool got = co_await eng.step(us(500.0));
      (void)got;
    }
    stats_a = eng.stats();
    client_done = true;
    server_done = true;
  });

  sim.run(us(4e6));

  EXPECT_TRUE(client_done);
  EXPECT_EQ(echoed_ok, kConns);
  EXPECT_EQ(accepted, kConns);
  EXPECT_TRUE(shards_match);
  EXPECT_TRUE(shards_spread);
  EXPECT_TRUE(sizes_sum);
  EXPECT_EQ(stats_a.conns_opened, kConns);
  EXPECT_EQ(stats_a.conns_closed, kConns);
  EXPECT_EQ(stats_b.conns_accepted, kConns);
}

TEST(TcpEngineScale, SynBacklogOverflowDropsAndRecovers) {
  // 32 simultaneous SYNs against a backlog of 8: the excess is dropped
  // silently (counted), and the clients' SYN retransmission eventually
  // lands every connection anyway — the kernel-SYN-queue contract.
  constexpr std::size_t kConns = 32;
  Simulator sim;
  Node& na = sim.add_node("a");
  Node& nb = sim.add_node("b");
  net::An2Device dev_a(na), dev_b(nb);
  dev_a.connect(dev_b);

  std::size_t established = 0;
  std::uint64_t backlog_drops = 0, accepted = 0;
  bool server_stop = false;
  TcpEngine::Stats stats_b{};

  nb.kernel().spawn("server", [&](Process& self) -> Task {
    An2Link link(self, dev_b, big_link_cfg());
    TcpEngine::Config cfg;
    cfg.local_ip = kIpB;
    cfg.rx_batch = 64;
    TcpEngine eng(link, cfg);
    TcpEngine::ListenConfig lc;
    lc.backlog = 8;
    TcpEngine::TcpListener& l = eng.listen(80, lc);
    // Sleep through the first SYN wave so it arrives as one burst: the
    // whole wave hits the backlog check in a single rx batch.
    co_await self.sleep_for(us(30000.0));
    co_await eng.run(server_stop, self.node().now() + us(3e6));
    backlog_drops = l.backlog_drops;
    accepted = l.accepted;
    stats_b = eng.stats();
  });

  na.kernel().spawn("clients", [&](Process& self) -> Task {
    An2Link link(self, dev_a, big_link_cfg());
    TcpEngine::Config cfg;
    cfg.local_ip = kIpA;
    cfg.rto = us(5000.0);  // fast SYN retry waves
    cfg.min_rto = us(5000.0);
    cfg.max_retries = 12;
    TcpEngine eng(link, cfg);
    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId) { ++established; };
    for (std::size_t i = 0; i < kConns; ++i) {
      const auto port = static_cast<std::uint16_t>(4000 + i);
      const TcpEngine::ConnId id = eng.connect(kIpB, 80, port, cbs);
      EXPECT_NE(id, 0u);
    }
    const sim::Cycles limit = self.node().now() + us(2e6);
    while (established < kConns && self.node().now() < limit) {
      const bool got = co_await eng.step(us(2000.0));
      (void)got;
    }
    // The client counts a flow up at SYN/ACK time; the server counts it
    // at the final ACK (possibly a retransmitted handshake). Keep
    // stepping so every third ACK lands before the server stops.
    const sim::Cycles drain_until = self.node().now() + us(300000.0);
    while (self.node().now() < drain_until) {
      const bool got = co_await eng.step(us(5000.0));
      (void)got;
    }
    server_stop = true;
  });

  sim.run(us(4e6));

  EXPECT_EQ(established, kConns);  // everyone got in eventually
  EXPECT_EQ(accepted, kConns);
  EXPECT_GT(backlog_drops, 0u);  // but not on the first wave
  EXPECT_EQ(stats_b.syn_backlog_drops, backlog_drops);
}

TEST(TcpEngineScale, ConnectRejectsFourTupleCollision) {
  Simulator sim;
  Node& na = sim.add_node("a");
  net::An2Device dev_a(na);  // never connected: SYNs go nowhere
  bool checked = false;

  na.kernel().spawn("client", [&](Process& self) -> Task {
    An2Link link(self, dev_a, {});
    TcpEngine::Config cfg;
    cfg.local_ip = kIpA;
    TcpEngine eng(link, cfg);
    const TcpEngine::ConnId first = eng.connect(kIpB, 80, 4000, {});
    EXPECT_NE(first, 0u);
    const TcpEngine::ConnId dup = eng.connect(kIpB, 80, 4000, {});
    EXPECT_EQ(dup, 0u);  // same 4-tuple: refused
    const TcpEngine::ConnId other = eng.connect(kIpB, 80, 4001, {});
    EXPECT_NE(other, 0u);
    EXPECT_EQ(eng.open_connections(), 2u);
    checked = true;
    co_return;
  });
  sim.run(us(1000.0));
  EXPECT_TRUE(checked);
}

TEST(TcpEngineScale, FlowChannelIsStableAndSpreads) {
  // The shared flow label: deterministic per 4-tuple, sensitive to every
  // field, and well-spread across queues for port-varied flows.
  const int a = net::SteeringPolicy::flow_channel(1, 2, 3, 4);
  EXPECT_EQ(a, net::SteeringPolicy::flow_channel(1, 2, 3, 4));
  EXPECT_NE(a, net::SteeringPolicy::flow_channel(2, 2, 3, 4));
  EXPECT_NE(a, net::SteeringPolicy::flow_channel(1, 2, 4, 3));
  EXPECT_GE(a, 0);  // folded to 31 bits, valid channel index

  std::vector<int> hits(8, 0);
  for (std::uint16_t port = 1024; port < 1024 + 512; ++port) {
    const int ch = net::SteeringPolicy::flow_channel(
        kIpA.value, kIpB.value, port, 80);
    ++hits[static_cast<std::size_t>(ch) % hits.size()];
  }
  for (const int h : hits) EXPECT_GT(h, 0);  // no starved queue
}

// ------------------------------------------------- chunked reads

/// One drain of the receive buffer by the reading side.
struct Drain {
  sim::Cycles at = 0;
  std::size_t bytes = 0;
  bool window_update = false;  // the drain queued a window-update ACK

  friend bool operator==(const Drain&, const Drain&) = default;
};

struct ChunkedRun {
  std::vector<std::uint8_t> got;
  std::vector<Drain> drains;
  TcpEngine::Stats reader{};
  sim::Cycles done_at = 0;
};

/// A 48 KB stream into a 4 KB receive buffer that the reader drains
/// every third step, `chunk` bytes per read() call. Reads cost no
/// simulated time, so the run must not depend on `chunk` at all.
ChunkedRun chunked_read_run(const std::vector<std::uint8_t>& stream,
                            std::size_t chunk) {
  Simulator sim;
  Node& na = sim.add_node("a");
  Node& nb = sim.add_node("b");
  net::An2Device dev_a(na), dev_b(nb);
  dev_a.connect(dev_b);
  ChunkedRun out;
  bool closed_a = false;

  na.kernel().spawn("writer", [&](Process& self) -> Task {
    An2Link link(self, dev_a, {});
    TcpEngine::Config cfg;
    cfg.local_ip = kIpA;
    TcpEngine eng(link, cfg);
    TcpEngine::Callbacks cbs;
    cbs.on_established = [&](TcpEngine::ConnId id) {
      EXPECT_TRUE(eng.write(id, stream));
      eng.close(id);
    };
    cbs.on_closed = [&](TcpEngine::ConnId) { closed_a = true; };
    EXPECT_NE(eng.connect(kIpB, 80, 4000, cbs), 0u);
    co_await eng.run(closed_a, self.node().now() + us(2e6));
  });

  nb.kernel().spawn("reader", [&](Process& self) -> Task {
    An2Link link(self, dev_b, {});
    TcpEngine::Config cfg;
    cfg.local_ip = kIpB;
    cfg.rcv_limit = 4096;
    TcpEngine eng(link, cfg);
    TcpEngine::ConnId id = 0;
    TcpEngine::ListenConfig lc;
    lc.callbacks.on_established = [&](TcpEngine::ConnId cid) { id = cid; };
    eng.listen(80, lc);
    std::vector<std::uint8_t> buf(chunk);
    const sim::Cycles limit = self.node().now() + us(2e6);
    for (int step = 1; self.node().now() < limit; ++step) {
      const bool got_frame = co_await eng.step(us(300.0));
      (void)got_frame;
      if (step % 3 != 0) continue;
      const std::uint64_t updates = eng.stats().window_updates;
      Drain d{self.node().now(), 0, false};
      for (;;) {
        const std::size_t n = eng.read(id, buf.data(), chunk);
        if (n == 0) break;
        out.got.insert(out.got.end(), buf.begin(), buf.begin() + n);
        d.bytes += n;
      }
      d.window_update = eng.stats().window_updates > updates;
      if (d.bytes > 0) out.drains.push_back(d);
      if (out.got.size() == stream.size() && eng.at_eof(id)) break;
    }
    eng.close(id);
    while (eng.open_connections() > 0 && self.node().now() < limit) {
      const bool got_frame = co_await eng.step(us(1000.0));
      (void)got_frame;
    }
    out.reader = eng.stats();
    out.done_at = self.node().now();
  });
  sim.run(us(3e6));
  return out;
}

TEST(TcpEngineChunkedRead, SameBytesAndWindowUpdatesForEveryChunkSize) {
  util::Rng rng(0xc4'0c4);
  std::vector<std::uint8_t> stream(48u << 10);
  for (auto& b : stream) b = static_cast<std::uint8_t>(rng.next());

  const ChunkedRun base = chunked_read_run(stream, 2048);
  EXPECT_TRUE(base.got == stream);
  std::size_t updates = 0;
  for (const Drain& d : base.drains) updates += d.window_update ? 1 : 0;
  EXPECT_GE(updates, 4u);  // the 4 KB buffer closed and reopened
  EXPECT_GT(base.done_at, 0u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
    const ChunkedRun run = chunked_read_run(stream, chunk);
    EXPECT_TRUE(run.got == stream) << chunk;
    EXPECT_TRUE(run.drains == base.drains) << chunk;
    EXPECT_EQ(run.reader.acks_sent, base.reader.acks_sent) << chunk;
    EXPECT_EQ(run.reader.segments_out, base.reader.segments_out) << chunk;
    EXPECT_EQ(run.reader.segments_in, base.reader.segments_in) << chunk;
    EXPECT_EQ(run.done_at, base.done_at) << chunk;
  }
}

}  // namespace
}  // namespace ash::proto
