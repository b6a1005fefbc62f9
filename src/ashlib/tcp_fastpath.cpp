#include "ashlib/tcp_fastpath.hpp"

#include <cstring>

#include "dilp/stdpipes.hpp"
#include "proto/headers.hpp"
#include "proto/tcb_shm.hpp"
#include "sim/memops.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"
#include "vcode/builder.hpp"

namespace ash::ashlib {

using proto::tcb::kAckPseudoSum;
using proto::tcb::kAckScratch;
using proto::tcb::kAshCommits;
using proto::tcb::kAshFallbacks;
using proto::tcb::kChecksumOn;
using proto::tcb::kLibBusy;
using proto::tcb::kLocalPort;
using proto::tcb::kRcvNxt;
using proto::tcb::kRemotePort;
using proto::tcb::kSndNxt;
using proto::tcb::kSndUna;
using proto::tcb::kSndWnd;
using proto::tcb::kStageBase;
using proto::tcb::kStageCap;
using proto::tcb::kStageRd;
using proto::tcb::kStageUsed;
using proto::tcb::kStageWr;
using proto::tcb::kState;
using vcode::Builder;
using vcode::kRegArg0;
using vcode::kRegArg1;
using vcode::kRegArg2;
using vcode::kRegArg3;
using vcode::kRegZero;
using vcode::Label;
using vcode::Reg;

namespace {
constexpr std::int32_t off_of(std::uint32_t word) {
  return static_cast<std::int32_t>(4 * word);
}
}  // namespace

int register_fastpath_ilp(core::AshSystem& ash, std::string* error) {
  dilp::PipeList pl;
  pl.add(dilp::make_cksum_pipe(nullptr));
  return ash.dilp().register_ilp(pl, dilp::Direction::Read, error);
}

vcode::Program make_tcp_fastpath_program(int ilp_id,
                                         std::uint32_t hdr_off) {
  Builder b;
  // Entry: r1 = msg, r2 = len, r3 = tcb, r4 = reply channel. All message
  // reads go through TMsgLoad — the "specialized trusted function calls"
  // of Section III-B2 — so the same handler runs over the AN2 (message in
  // owner memory) and the Ethernet (striped kernel buffer): the kernel
  // presents a logical byte view either way. `hdr_off` is the link-layer
  // framing size in front of the IP header (0 for AN2, 14 for Ethernet).
  const Reg msg = b.reg();
  const Reg tcb = b.reg();
  const Reg chan = b.reg();
  const Reg mlen = b.reg();
  const Reg t = b.reg();
  const Reg v = b.reg();
  const Reg w = b.reg();     // scratch for loaded message words
  const Reg tl = b.reg();    // IP total_len
  const Reg plen = b.reg();  // payload length
  const Reg acc = b.reg();   // checksum accumulator
  const Reg wr = b.reg();
  const Reg used = b.reg();
  const Reg cap = b.reg();
  const Reg dst = b.reg();
  const Reg seq = b.reg();
  const Reg ckon = b.reg();

  Label fallback = b.label();
  Label no_reset = b.label();
  Label skip_cksum_pre = b.label();
  Label skip_fold = b.label();
  Label no_ack_adv = b.label();
  Label no_reply = b.label();

  const auto off = [hdr_off](std::uint32_t x) {
    return static_cast<std::int32_t>(hdr_off + x);
  };

  b.mov(msg, kRegArg0);
  b.mov(mlen, kRegArg1);
  b.mov(tcb, kRegArg2);
  b.mov(chan, kRegArg3);

  // --- constraint checks (Section V-B's three conditions) ---
  b.lw(t, tcb, off_of(kLibBusy));
  b.bne(t, kRegZero, fallback);             // library owns the TCB
  b.lw(t, tcb, off_of(kState));
  b.movi(v, static_cast<std::uint32_t>(proto::TcpState::Established));
  b.bne(t, v, fallback);                    // not established

  b.movi(v, hdr_off + 40);
  b.bltu(mlen, v, fallback);                // runt packet

  b.t_msgload(w, kRegZero, off(0));         // IP word 0
  b.andi(t, w, 0xff);
  b.movi(v, 0x45);
  b.bne(t, v, fallback);                    // not plain IPv4
  // total_len: big-endian 16 at +2 == bswap16 of the word's high half.
  b.srli(tl, w, 16);
  b.bswap16(tl, tl);
  b.t_msgload(w, kRegZero, off(8));         // IP word 2 (ttl/proto/cksum)
  b.srli(t, w, 8);
  b.andi(t, t, 0xff);
  b.movi(v, 6);
  b.bne(t, v, fallback);                    // not TCP

  b.subu(t, mlen, kRegZero);                // t = mlen
  b.movi(v, hdr_off);
  b.subu(t, t, v);                          // bytes after link framing
  b.bltu(t, tl, fallback);                  // truncated
  b.movi(v, 40);
  b.bltu(tl, v, fallback);
  b.subu(plen, tl, v);                      // payload bytes
  b.andi(t, plen, 3);
  b.bne(t, kRegZero, fallback);             // DILP wants whole words

  // Ports (one word at +20: src in the low half, dst in the high half).
  b.t_msgload(w, kRegZero, off(20));
  b.andi(t, w, 0xffff);
  b.bswap16(t, t);
  b.lw(v, tcb, off_of(kRemotePort));
  b.bne(t, v, fallback);
  b.srli(t, w, 16);
  b.bswap16(t, t);
  b.lw(v, tcb, off_of(kLocalPort));
  b.bne(t, v, fallback);

  // Flags at +33 (word at +32, byte 1): ACK required, FIN/SYN/RST not.
  b.t_msgload(w, kRegZero, off(32));
  b.srli(t, w, 8);
  b.andi(v, t, 0x07);
  b.bne(v, kRegZero, fallback);
  b.andi(v, t, 0x10);
  b.beq(v, kRegZero, fallback);

  // seq (big-endian 32 at +24) must be exactly rcv_nxt.
  b.t_msgload(seq, kRegZero, off(24));
  b.bswap32(seq, seq);
  b.lw(t, tcb, off_of(kRcvNxt));
  b.bne(seq, t, fallback);

  // --- staging-ring room (contiguous; reset offsets when drained) ---
  b.lw(used, tcb, off_of(kStageUsed));
  b.lw(cap, tcb, off_of(kStageCap));
  b.lw(wr, tcb, off_of(kStageWr));
  b.bne(used, kRegZero, no_reset);
  b.movi(wr, 0);
  b.sw(wr, tcb, off_of(kStageWr));
  b.sw(kRegZero, tcb, off_of(kStageRd));
  b.bind(no_reset);
  b.addu(t, wr, plen);
  b.bltu(cap, t, fallback);                 // would not fit contiguously

  // --- checksum pre-accumulation: pseudo-header + TCP header ---
  b.movi(acc, 0);
  b.lw(ckon, tcb, off_of(kChecksumOn));
  b.beq(ckon, kRegZero, skip_cksum_pre);
  b.t_msgload(t, kRegZero, off(12));        // src IP (little-endian word)
  b.cksum32(acc, t);
  b.t_msgload(t, kRegZero, off(16));        // dst IP
  b.cksum32(acc, t);
  b.movi(v, 20);
  b.subu(t, tl, v);                         // TCP length
  b.bswap16(t, t);
  b.slli(t, t, 16);
  b.ori(t, t, 0x0600);                      // pseudo proto/len word
  b.cksum32(acc, t);
  for (int i = 0; i < 5; ++i) {             // 20-byte TCP header
    b.t_msgload(t, kRegZero, off(20 + 4 * static_cast<std::uint32_t>(i)));
    b.cksum32(acc, t);
  }
  b.bind(skip_cksum_pre);

  // --- integrated checksum+copy of the payload (dynamic ILP) ---
  b.lw(t, tcb, off_of(kStageBase));
  b.addu(dst, t, wr);
  const Reg src = b.reg();
  b.movi(src, hdr_off + 40);
  b.addu(src, src, msg);                    // logical payload address
  const Reg ilp = b.reg();
  b.movi(ilp, static_cast<std::uint32_t>(ilp_id));
  b.mov(core::kDilpPersistentBase, acc);    // seed the accumulator (r48)
  b.t_dilp(ilp, src, dst, plen);
  b.bne(kRegArg0, kRegZero, fallback);      // transfer rejected
  b.mov(acc, core::kDilpPersistentBase);    // accumulator back

  // --- fold and verify (sum over pseudo+segment must be 0xffff) ---
  b.beq(ckon, kRegZero, skip_fold);
  b.srli(t, acc, 16);
  b.andi(acc, acc, 0xffff);
  b.addu(acc, acc, t);
  b.srli(t, acc, 16);
  b.andi(acc, acc, 0xffff);
  b.addu(acc, acc, t);
  b.movi(v, 0xffff);
  b.bne(acc, v, fallback);
  b.bind(skip_fold);

  // --- commit: rcv_nxt, staging ring ---
  b.lw(t, tcb, off_of(kRcvNxt));
  b.addu(t, t, plen);
  b.sw(t, tcb, off_of(kRcvNxt));
  const Reg rcv_new = b.reg();
  b.mov(rcv_new, t);
  b.addu(wr, wr, plen);
  b.sw(wr, tcb, off_of(kStageWr));
  b.addu(used, used, plen);
  b.sw(used, tcb, off_of(kStageUsed));

  // --- record the cumulative ACK and peer window for the writer ---
  const Reg ackv = b.reg();
  b.t_msgload(ackv, kRegZero, off(28));
  b.bswap32(ackv, ackv);
  b.lw(t, tcb, off_of(kSndUna));
  b.subu(v, ackv, t);                       // ack - snd_una
  b.beq(v, kRegZero, no_ack_adv);
  b.srli(v, v, 31);
  b.bne(v, kRegZero, no_ack_adv);           // negative: old ack
  b.lw(t, tcb, off_of(kSndNxt));
  b.subu(v, t, ackv);                       // snd_nxt - ack
  b.srli(v, v, 31);
  b.bne(v, kRegZero, no_ack_adv);           // beyond what we sent
  b.sw(ackv, tcb, off_of(kSndUna));
  b.bind(no_ack_adv);
  b.t_msgload(w, kRegZero, off(32));        // window: bytes 34/35
  b.srli(t, w, 16);
  b.bswap16(t, t);
  b.sw(t, tcb, off_of(kSndWnd));

  b.lw(t, tcb, off_of(kAshCommits));
  b.addiu(t, t, 1);
  b.sw(t, tcb, off_of(kAshCommits));

  // --- build and send the ACK (data segments only) ---
  b.beq(plen, kRegZero, no_reply);
  const Reg scr = b.reg();
  b.lw(scr, tcb, off_of(proto::tcb::kAckScratch));
  const Reg foff = b.reg();
  b.lw(foff, tcb, off_of(proto::tcb::kAckFrameOff));
  b.addu(scr, scr, foff);                   // scr -> IP header of template
  b.lw(t, tcb, off_of(kSndNxt));
  b.bswap32(t, t);
  b.sw_u(t, scr, 24);                       // seq = snd_nxt
  b.bswap32(t, rcv_new);
  b.sw_u(t, scr, 28);                       // ack = new rcv_nxt

  // Advertised window = (cap/2) - used, clamped at 0, stored big-endian.
  Label wnd_ok = b.label();
  const Reg adv = b.reg();
  b.srli(adv, cap, 1);
  b.subu(adv, adv, used);
  b.srli(v, adv, 31);
  b.beq(v, kRegZero, wnd_ok);
  b.movi(adv, 0);
  b.bind(wnd_ok);
  b.bswap16(t, adv);
  b.sh(t, scr, 34);

  // TCP checksum over the patched header + precomputed pseudo partial.
  b.sh(kRegZero, scr, 36);
  const Reg acc2 = b.reg();
  b.lw(acc2, tcb, off_of(kAckPseudoSum));
  for (int i = 0; i < 5; ++i) {
    b.lw_u(t, scr, 20 + 4 * i);
    b.cksum32(acc2, t);
  }
  b.srli(t, acc2, 16);
  b.andi(acc2, acc2, 0xffff);
  b.addu(acc2, acc2, t);
  b.srli(t, acc2, 16);
  b.andi(acc2, acc2, 0xffff);
  b.addu(acc2, acc2, t);
  b.xori(acc2, acc2, 0xffff);
  b.sh(acc2, scr, 36);

  // Transmit from the start of the template (framing included).
  const Reg acklen = b.reg();
  b.movi(acklen, 40);
  b.addu(acklen, acklen, foff);
  b.subu(scr, scr, foff);
  b.t_send(chan, scr, acklen);
  b.bind(no_reply);
  b.movi(kRegArg0, 1);
  b.halt();

  b.bind(fallback);
  b.lw(t, tcb, off_of(kAshFallbacks));
  b.addiu(t, t, 1);
  b.sw(t, tcb, off_of(kAshFallbacks));
  b.abort(7);
  return b.take();
}

std::optional<TcpFastPath> install_tcp_fastpath(core::AshSystem& ash,
                                                net::An2Device& dev, int vc,
                                                proto::TcpConnection& conn,
                                                const core::AshOptions& opts,
                                                std::string* error) {
  TcpFastPath out;
  out.ilp_id = register_fastpath_ilp(ash, error);
  if (out.ilp_id < 0) return std::nullopt;
  const vcode::Program prog = make_tcp_fastpath_program(out.ilp_id, 0);
  out.ash_id = ash.download(conn.link().self(), prog, opts, error,
                            &out.report);
  if (out.ash_id < 0) return std::nullopt;
  ash.attach(dev, vc, out.ash_id, conn.shm().base());
  conn.set_handler_attached(true);
  return out;
}

std::optional<TcpFastPath> install_tcp_fastpath_eth(
    core::AshSystem& ash, net::EthernetDevice& dev, int endpoint,
    proto::TcpConnection& conn, const proto::MacAddr& local_mac,
    const proto::MacAddr& peer_mac, const core::AshOptions& opts,
    std::string* error) {
  TcpFastPath out;
  out.ilp_id = register_fastpath_ilp(ash, error);
  if (out.ilp_id < 0) return std::nullopt;
  const vcode::Program prog = make_tcp_fastpath_program(
      out.ilp_id, static_cast<std::uint32_t>(proto::kEthHeaderLen));
  out.ash_id = ash.download(conn.link().self(), prog, opts, error,
                            &out.report);
  if (out.ash_id < 0) return std::nullopt;

  // Re-frame the connection's ACK template for Ethernet: shift the IP/TCP
  // template behind an Ethernet header and record the framing offset so
  // the handler patches the right bytes and transmits the whole frame.
  sim::Node& node = *(&conn.link().self().node());
  proto::TcbShm shm = conn.shm();
  const std::uint32_t scr = shm.get(proto::tcb::kAckScratch);
  std::uint8_t* buf = node.mem(scr, proto::tcb::kAckBufLen);
  std::memmove(buf + proto::kEthHeaderLen, buf, proto::tcb::kAckPacketLen);
  proto::EthHeader eh;
  eh.dst = peer_mac;
  eh.src = local_mac;
  eh.ethertype = proto::kEtherTypeIp;
  proto::encode_eth({buf, proto::kEthHeaderLen}, eh);
  shm.set(proto::tcb::kAckFrameOff,
          static_cast<std::uint32_t>(proto::kEthHeaderLen));

  ash.attach(dev, endpoint, out.ash_id, conn.shm().base());
  conn.set_handler_attached(true);
  return out;
}

void install_tcp_fastpath_upcall(core::UpcallManager& upcalls,
                                 net::An2Device& dev, int vc,
                                 proto::TcpConnection& conn) {
  sim::Node* node = &dev.node();
  proto::TcbShm shm = conn.shm();
  conn.set_handler_attached(true);

  upcalls.attach_an2(dev, vc, [node, shm](const core::UpcallManager::Ctx&
                                              ctx) mutable {
    using core::UpcallManager;
    // Cost of running the prediction checks and deciding to decline.
    const UpcallManager::Result declined{sim::us(4.0), false};

    const std::uint8_t* p = node->mem(ctx.msg_addr, ctx.msg_len);
    if (p == nullptr || ctx.msg_len < 40) return declined;
    if (shm.get(kLibBusy) != 0 ||
        shm.get(kState) !=
            static_cast<std::uint32_t>(proto::TcpState::Established)) {
      return declined;
    }
    const auto ip = proto::decode_ip({p, ctx.msg_len});
    if (!ip || ip->protocol != proto::kIpProtoTcp) return declined;
    const std::uint32_t seg_len = ip->total_len - 20u;
    const auto tcp = proto::decode_tcp({p + 20, seg_len});
    if (!tcp || tcp->dst_port != shm.get(kLocalPort) ||
        tcp->src_port != shm.get(kRemotePort)) {
      return declined;
    }
    if (tcp->flags.syn || tcp->flags.fin || tcp->flags.rst ||
        !tcp->flags.ack || tcp->seq != shm.get(kRcvNxt)) {
      return declined;
    }
    const std::uint32_t plen = ip->total_len - 40u;
    if ((plen & 3u) != 0) return declined;

    std::uint32_t used = shm.get(kStageUsed);
    const std::uint32_t cap = shm.get(kStageCap);
    std::uint32_t wr = shm.get(kStageWr);
    if (used == 0) {
      wr = 0;
      shm.set(kStageWr, 0);
      shm.set(kStageRd, 0);
    }
    if (wr + plen > cap) return declined;

    sim::Cycles cycles = sim::us(5.0);  // prediction + TCB bookkeeping

    const bool ckon = shm.get(kChecksumOn) != 0;
    if (ckon) {
      std::uint32_t acc = proto::pseudo_header_sum(
          ip->src, ip->dst, proto::kIpProtoTcp,
          static_cast<std::uint16_t>(seg_len));
      acc = util::cksum_partial({p + 20, seg_len}, acc);
      if (util::fold16(acc) != 0xffff) return declined;  // library re-drops
    }
    // The integrated checksum+copy traversal (upcalls benefit from DILP
    // too, per the paper); verification above was computed natively, the
    // charged cost is this single pass.
    const std::uint32_t stage_dst = shm.get(kStageBase) + wr;
    std::uint32_t dummy = 0;
    if (plen > 0) {
      if (ckon) {
        cycles += sim::memops::copy_cksum(*node, stage_dst,
                                          ctx.msg_addr + 40, plen, &dummy);
      } else {
        cycles += sim::memops::copy(*node, stage_dst, ctx.msg_addr + 40,
                                    plen);
      }
    }

    // Commit.
    const std::uint32_t rcv_new = shm.get(kRcvNxt) + plen;
    shm.set(kRcvNxt, rcv_new);
    shm.set(kStageWr, wr + plen);
    shm.set(kStageUsed, used + plen);

    // Record cumulative ACK + peer window.
    const std::uint32_t una = shm.get(kSndUna);
    const std::uint32_t snd_nxt = shm.get(kSndNxt);
    if (proto::seq_lt(una, tcp->ack) && proto::seq_le(tcp->ack, snd_nxt)) {
      shm.set(kSndUna, tcp->ack);
    }
    shm.set(kSndWnd, tcp->window);
    shm.set(kAshCommits, shm.get(kAshCommits) + 1);

    // Reply with a patched template ACK.
    if (plen > 0) {
      const std::uint32_t scr = shm.get(kAckScratch);
      std::uint8_t ack[proto::tcb::kAckPacketLen];
      std::memcpy(ack, node->mem(scr, sizeof ack), sizeof ack);
      util::store_be32(ack + 24, snd_nxt);
      util::store_be32(ack + 28, rcv_new);
      const std::uint32_t w = cap / 2;
      const std::uint32_t adv = used + plen >= w ? 0 : w - (used + plen);
      util::store_be16(ack + 34, static_cast<std::uint16_t>(adv));
      util::store_be16(ack + 36, 0);
      const std::uint16_t ck = proto::transport_checksum(
          proto::Ipv4Addr{shm.get(proto::tcb::kLocalIp)},
          proto::Ipv4Addr{shm.get(proto::tcb::kRemoteIp)},
          proto::kIpProtoTcp, {ack + 20, 20});
      util::store_be16(ack + 36, ck);
      ctx.send(ctx.channel, ack);
      cycles += sim::us(4.0);  // header patch + checksum + send setup
    }
    return UpcallManager::Result{cycles, true};
  });
}

}  // namespace ash::ashlib
