// Charged memory operations over node memory.
//
// The protocol library's data touching (copies, checksums, byteswaps, and
// the hand-integrated combinations of Table IV) goes through these
// helpers: each performs the real byte operation on the node's memory AND
// returns the simulated cycle cost, computed from the cost model's
// per-word loop instruction counts plus the node's cache model. The
// separate-vs-integrated throughput shapes of Tables III/IV emerge from
// exactly this accounting.
//
// Lengths are handled per 32-bit word with a byte-serial tail, matching
// the hand loops the costs describe.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"

namespace ash::sim {
class Node;
}

namespace ash::sim::memops {

/// Plain copy (one traversal). Returns simulated cycles; performs the copy.
Cycles copy(Node& node, std::uint32_t dst, std::uint32_t src,
            std::uint32_t len);

/// Checksum pass (no copy): accumulate little-endian words into *acc.
Cycles cksum(Node& node, std::uint32_t addr, std::uint32_t len,
             std::uint32_t* acc);

/// In-place 32-bit byteswap pass.
Cycles bswap(Node& node, std::uint32_t addr, std::uint32_t len);

/// Hand-integrated copy+checksum (the "C integrated" loop of Table IV).
Cycles copy_cksum(Node& node, std::uint32_t dst, std::uint32_t src,
                  std::uint32_t len, std::uint32_t* acc);

/// Hand-integrated copy+checksum+byteswap.
Cycles copy_cksum_bswap(Node& node, std::uint32_t dst, std::uint32_t src,
                        std::uint32_t len, std::uint32_t* acc);

/// Zero-fill (used for buffer initialization; charged like a copy's store
/// half).
Cycles fill(Node& node, std::uint32_t addr, std::uint32_t len,
            std::uint8_t value);

/// Charge for staging `len` host bytes into node memory at `addr`: a copy
/// loop's instructions per word plus the cache traffic of its stores (the
/// loads come from outside the simulated machine). Charges only; the
/// caller moves the bytes.
Cycles stage_store_cycles(Node& node, std::uint32_t addr, std::uint32_t len);

/// De-striping copy for the Ethernet DMA quirk (Section III-C): the
/// device stripes an N-byte packet into a 2N-byte buffer, alternating
/// `chunk` bytes of data and `chunk` bytes of padding. Reads therefore
/// touch a 2N cache footprint; cost accounting reflects that.
Cycles copy_destripe(Node& node, std::uint32_t dst, std::uint32_t src_striped,
                     std::uint32_t len, std::uint32_t chunk = 16);

/// De-striping copy + checksum in one traversal (used by the Ethernet
/// receive path when end-to-end checksumming is on).
Cycles copy_destripe_cksum(Node& node, std::uint32_t dst,
                           std::uint32_t src_striped, std::uint32_t len,
                           std::uint32_t* acc, std::uint32_t chunk = 16);

/// Striping store: write `len` bytes from `src` into a 2*len striped
/// region at `dst_striped` (models the device's view; used by tests).
Cycles copy_stripe(Node& node, std::uint32_t dst_striped, std::uint32_t src,
                   std::uint32_t len, std::uint32_t chunk = 16);

}  // namespace ash::sim::memops
