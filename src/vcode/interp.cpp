#include "vcode/interp.hpp"

#include <algorithm>
#include <cstring>

#include "trace/trace.hpp"
#include "util/byteorder.hpp"
#include "util/checksum.hpp"

namespace ash::vcode {

const char* to_string(Outcome o) noexcept {
  switch (o) {
    case Outcome::Halted: return "halted";
    case Outcome::VoluntaryAbort: return "voluntary-abort";
    case Outcome::MemFault: return "mem-fault";
    case Outcome::AlignFault: return "align-fault";
    case Outcome::DivideByZero: return "divide-by-zero";
    case Outcome::BudgetExceeded: return "budget-exceeded";
    case Outcome::BadInstruction: return "bad-instruction";
    case Outcome::IndirectJumpFault: return "indirect-jump-fault";
    case Outcome::CallDepthExceeded: return "call-depth-exceeded";
    case Outcome::StreamFault: return "stream-fault";
    case Outcome::TrustedDenied: return "trusted-denied";
  }
  return "unknown";
}

void Env::bind_regs(std::uint32_t*) {}
bool Env::mem_read(std::uint32_t, void*, std::uint32_t) { return false; }
bool Env::mem_write(std::uint32_t, const void*, std::uint32_t) {
  return false;
}
std::uint64_t Env::mem_cycles(std::uint32_t, std::uint32_t, bool) {
  return 0;
}
bool Env::fast_mem(FastMem*) { return false; }
bool Env::t_msglen(std::uint32_t*, std::uint64_t*) { return false; }
bool Env::t_send(std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t*,
                 std::uint64_t*) {
  return false;
}
bool Env::t_dilp(std::uint32_t, std::uint32_t, std::uint32_t, std::uint32_t,
                 std::uint32_t*, std::uint64_t*) {
  return false;
}
bool Env::t_usercopy(std::uint32_t, std::uint32_t, std::uint32_t,
                     std::uint32_t*, std::uint64_t*) {
  return false;
}
bool Env::t_msgload(std::uint32_t, std::uint32_t*, std::uint64_t*) {
  return false;
}
bool Env::pipe_in(std::uint32_t, std::uint32_t*) { return false; }
bool Env::pipe_out(std::uint32_t, std::uint32_t) { return false; }

namespace {

float as_float(std::uint32_t bits) noexcept {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

std::uint32_t as_bits(float f) noexcept {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

}  // namespace

JumpTable::JumpTable(const Program& prog) {
  // Gather (key, translated-target) pairs: a sandboxed program translates
  // pre-sandbox addresses through indirect_map; an unsandboxed one admits
  // exactly its registered targets unchanged.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  if (!prog.indirect_map.empty()) {
    entries = prog.indirect_map;
  } else {
    entries.reserve(prog.indirect_targets.size());
    for (std::uint32_t t : prog.indirect_targets) entries.emplace_back(t, t);
  }
  if (entries.empty()) return;

  std::uint32_t max_dense_key = 0;
  for (const auto& [k, v] : entries) {
    if (k < kMaxProgramLen && k > max_dense_key) max_dense_key = k;
  }
  dense_.assign(static_cast<std::size_t>(max_dense_key) + 1, -1);
  for (const auto& [k, v] : entries) {
    if (k < dense_.size()) {
      dense_[k] = static_cast<std::int64_t>(v);
    } else {
      sparse_.emplace_back(k, v);
    }
  }
  std::sort(sparse_.begin(), sparse_.end());
}

std::int64_t JumpTable::lookup_sparse(std::uint32_t t) const noexcept {
  const auto it = std::lower_bound(
      sparse_.begin(), sparse_.end(), t,
      [](const auto& e, std::uint32_t v) { return e.first < v; });
  if (it == sparse_.end() || it->first != t) return -1;
  return static_cast<std::int64_t>(it->second);
}

std::uint32_t count_basic_blocks(const Program& prog) {
  const auto leader =
      detail::block_leaders(prog, /*split_at_cond_branch=*/true);
  std::uint32_t count = 0;
  for (std::size_t i = 0; i + 1 < leader.size(); ++i) count += leader[i];
  return count;
}

namespace detail {

std::vector<std::uint8_t> block_leaders(const Program& prog,
                                        bool split_at_cond_branch) {
  const auto n = static_cast<std::uint32_t>(prog.insns.size());
  std::vector<std::uint8_t> leader(static_cast<std::size_t>(n) + 1, 0);
  if (n == 0) return leader;
  leader[0] = 1;
  bool any_jr = false;
  for (std::uint32_t i = 0; i < n; ++i) {
    switch (prog.insns[i].op) {
      case Op::Jmp:
      case Op::Call:
        if (prog.insns[i].imm < n) leader[prog.insns[i].imm] = 1;
        if (i + 1 < n) leader[i + 1] = 1;
        break;
      case Op::Beq:
      case Op::Bne:
      case Op::Bltu:
      case Op::Bgeu:
      case Op::Blt:
      case Op::Bge:
        if (prog.insns[i].imm < n) leader[prog.insns[i].imm] = 1;
        if (split_at_cond_branch && i + 1 < n) leader[i + 1] = 1;
        break;
      case Op::Jr:
        any_jr = true;
        [[fallthrough]];
      case Op::JrChk:
      case Op::Ret:
      case Op::Halt:
      case Op::Abort:
        if (i + 1 < n) leader[i + 1] = 1;
        break;
      default:
        break;
    }
  }
  auto mark = [&](std::uint32_t v) {
    if (v < n) leader[v] = 1;
  };
  if (!prog.indirect_map.empty()) {
    for (const auto& [k, v] : prog.indirect_map) mark(v);
  } else {
    for (std::uint32_t tgt : prog.indirect_targets) mark(tgt);
  }
  if (any_jr) std::fill(leader.begin(), leader.begin() + n, 1);
  return leader;
}

ExecResult run_core(const Program& prog, Env& env, std::uint32_t* regs,
                    const ExecLimits& limits, const JumpTable& jt,
                    ResumeState& rs, ExecResult res) {
  const auto& insns = prog.insns;
  const std::uint32_t n = static_cast<std::uint32_t>(insns.size());
  Env* const env_ = &env;

  std::uint32_t pc = rs.pc;
  std::uint64_t budget = rs.budget;
  auto& call_stack = rs.call_stack;
  std::uint32_t call_depth = rs.call_depth;

  auto finish = [&](Outcome o, std::uint32_t at) {
    res.outcome = o;
    res.fault_pc = at;
    res.result = regs[kRegArg0];
    return res;
  };

  for (;;) {
    if (pc >= n) return finish(Outcome::BadInstruction, pc);
    if (res.insns >= limits.max_insns ||
        (limits.max_cycles != 0 && res.cycles >= limits.max_cycles)) {
      return finish(Outcome::BudgetExceeded, pc);
    }
    const Insn& insn = insns[pc];
    const OpInfo& info = op_info(insn.op);
    ++res.insns;
    res.cycles += info.base_cycles;

    std::uint32_t next = pc + 1;
    switch (insn.op) {
      case Op::Nop:
        break;
      case Op::Halt:
        return finish(Outcome::Halted, pc);
      case Op::Abort:
        res.abort_code = insn.imm;
        return finish(Outcome::VoluntaryAbort, pc);
      case Op::Jmp:
        next = insn.imm;
        break;
      case Op::Jr: {
        const std::uint32_t t = regs[insn.a];
        if (t >= n) return finish(Outcome::IndirectJumpFault, pc);
        next = t;
        break;
      }
      case Op::JrChk: {
        // O(1) translation through the shared jump table (covers both the
        // sandboxed indirect_map and the unsandboxed indirect_targets).
        const std::int64_t t = jt.lookup(regs[insn.a]);
        if (t < 0) return finish(Outcome::IndirectJumpFault, pc);
        next = static_cast<std::uint32_t>(t);
        break;
      }
      case Op::Call:
        if (call_depth >= kMaxCallDepth) {
          return finish(Outcome::CallDepthExceeded, pc);
        }
        call_stack[call_depth++] = pc + 1;
        next = insn.imm;
        break;
      case Op::Ret:
        if (call_depth == 0) {
          return finish(Outcome::CallDepthExceeded, pc);
        }
        next = call_stack[--call_depth];
        break;
      case Op::Beq:
        if (regs[insn.a] == regs[insn.b]) next = insn.imm;
        break;
      case Op::Bne:
        if (regs[insn.a] != regs[insn.b]) next = insn.imm;
        break;
      case Op::Bltu:
        if (regs[insn.a] < regs[insn.b]) next = insn.imm;
        break;
      case Op::Bgeu:
        if (regs[insn.a] >= regs[insn.b]) next = insn.imm;
        break;
      case Op::Blt:
        if (static_cast<std::int32_t>(regs[insn.a]) <
            static_cast<std::int32_t>(regs[insn.b])) {
          next = insn.imm;
        }
        break;
      case Op::Bge:
        if (static_cast<std::int32_t>(regs[insn.a]) >=
            static_cast<std::int32_t>(regs[insn.b])) {
          next = insn.imm;
        }
        break;
      case Op::Budget:
        if (budget <= insn.imm) return finish(Outcome::BudgetExceeded, pc);
        budget -= insn.imm;
        break;

      case Op::Movi:
        regs[insn.a] = insn.imm;
        break;
      case Op::Mov:
        regs[insn.a] = regs[insn.b];
        break;
      case Op::Addu:
      case Op::Add:  // identical semantics here; overflow trap is a policy
                     // matter handled at verification/sandbox time
        regs[insn.a] = regs[insn.b] + regs[insn.c];
        break;
      case Op::Addiu:
        regs[insn.a] = regs[insn.b] + insn.imm;
        break;
      case Op::Subu:
      case Op::Sub:
        regs[insn.a] = regs[insn.b] - regs[insn.c];
        break;
      case Op::Mulu:
        regs[insn.a] = regs[insn.b] * regs[insn.c];
        break;
      case Op::Divu:
        if (regs[insn.c] == 0) return finish(Outcome::DivideByZero, pc);
        regs[insn.a] = regs[insn.b] / regs[insn.c];
        break;
      case Op::Remu:
        if (regs[insn.c] == 0) return finish(Outcome::DivideByZero, pc);
        regs[insn.a] = regs[insn.b] % regs[insn.c];
        break;
      case Op::And:
        regs[insn.a] = regs[insn.b] & regs[insn.c];
        break;
      case Op::Andi:
        regs[insn.a] = regs[insn.b] & insn.imm;
        break;
      case Op::Or:
        regs[insn.a] = regs[insn.b] | regs[insn.c];
        break;
      case Op::Ori:
        regs[insn.a] = regs[insn.b] | insn.imm;
        break;
      case Op::Xor:
        regs[insn.a] = regs[insn.b] ^ regs[insn.c];
        break;
      case Op::Xori:
        regs[insn.a] = regs[insn.b] ^ insn.imm;
        break;
      case Op::Sll:
        regs[insn.a] = regs[insn.b] << (regs[insn.c] & 31);
        break;
      case Op::Slli:
        regs[insn.a] = regs[insn.b] << (insn.imm & 31);
        break;
      case Op::Srl:
        regs[insn.a] = regs[insn.b] >> (regs[insn.c] & 31);
        break;
      case Op::Srli:
        regs[insn.a] = regs[insn.b] >> (insn.imm & 31);
        break;
      case Op::Sra:
        regs[insn.a] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(regs[insn.b]) >> (regs[insn.c] & 31));
        break;
      case Op::Srai:
        regs[insn.a] = static_cast<std::uint32_t>(
            static_cast<std::int32_t>(regs[insn.b]) >> (insn.imm & 31));
        break;
      case Op::Sltu:
        regs[insn.a] = regs[insn.b] < regs[insn.c] ? 1 : 0;
        break;
      case Op::Slt:
        regs[insn.a] = static_cast<std::int32_t>(regs[insn.b]) <
                               static_cast<std::int32_t>(regs[insn.c])
                           ? 1
                           : 0;
        break;
      case Op::Fadd:
        regs[insn.a] = as_bits(as_float(regs[insn.b]) + as_float(regs[insn.c]));
        break;
      case Op::Fmul:
        regs[insn.a] = as_bits(as_float(regs[insn.b]) * as_float(regs[insn.c]));
        break;

      case Op::Lw:
      case Op::Lhu:
      case Op::Lh:
      case Op::Lbu:
      case Op::Lb:
      case Op::Lwu_u: {
        const std::uint32_t addr = regs[insn.b] + insn.imm;
        std::uint32_t len = 4;
        if (insn.op == Op::Lhu || insn.op == Op::Lh) len = 2;
        if (insn.op == Op::Lbu || insn.op == Op::Lb) len = 1;
        if (insn.op != Op::Lwu_u && (addr & (len - 1)) != 0) {
          return finish(Outcome::AlignFault, pc);
        }
        std::uint8_t buf[4] = {};
        if (!env_->mem_read(addr, buf, len)) {
          return finish(Outcome::MemFault, pc);
        }
        res.cycles += env_->mem_cycles(addr, len, /*is_write=*/false);
        std::uint32_t v = 0;
        std::memcpy(&v, buf, len);  // simulated machine is little-endian
        if (insn.op == Op::Lh) {
          v = static_cast<std::uint32_t>(
              static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
        } else if (insn.op == Op::Lb) {
          v = static_cast<std::uint32_t>(
              static_cast<std::int32_t>(static_cast<std::int8_t>(v)));
        }
        regs[insn.a] = v;
        break;
      }
      case Op::Sw:
      case Op::Sh:
      case Op::Sb:
      case Op::Sw_u: {
        const std::uint32_t addr = regs[insn.b] + insn.imm;
        std::uint32_t len = 4;
        if (insn.op == Op::Sh) len = 2;
        if (insn.op == Op::Sb) len = 1;
        if (insn.op != Op::Sw_u && (addr & (len - 1)) != 0) {
          return finish(Outcome::AlignFault, pc);
        }
        const std::uint32_t v = regs[insn.a];
        if (!env_->mem_write(addr, &v, len)) {
          return finish(Outcome::MemFault, pc);
        }
        res.cycles += env_->mem_cycles(addr, len, /*is_write=*/true);
        break;
      }

      case Op::Cksum32:
        regs[insn.a] = util::cksum32_accumulate(regs[insn.a], regs[insn.b]);
        break;
      case Op::Bswap32:
        regs[insn.a] = util::bswap32(regs[insn.b]);
        break;
      case Op::Bswap16:
        regs[insn.a] = util::bswap16(static_cast<std::uint16_t>(regs[insn.b]));
        break;

      case Op::Pin8:
      case Op::Pin16:
      case Op::Pin32: {
        const std::uint32_t width =
            insn.op == Op::Pin8 ? 1 : insn.op == Op::Pin16 ? 2 : 4;
        std::uint32_t v = 0;
        if (!env_->pipe_in(width, &v)) return finish(Outcome::StreamFault, pc);
        regs[insn.a] = v;
        break;
      }
      case Op::Pout8:
      case Op::Pout16:
      case Op::Pout32: {
        const std::uint32_t width =
            insn.op == Op::Pout8 ? 1 : insn.op == Op::Pout16 ? 2 : 4;
        if (!env_->pipe_out(width, regs[insn.a])) {
          return finish(Outcome::StreamFault, pc);
        }
        break;
      }

      case Op::TMsgLen: {
        std::uint32_t len = 0;
        std::uint64_t cycles = 0;
        if (!env_->t_msglen(&len, &cycles)) {
          return finish(Outcome::TrustedDenied, pc);
        }
        res.cycles += cycles;
        regs[insn.a] = len;
        break;
      }
      case Op::TSend: {
        std::uint32_t status = 0;
        std::uint64_t cycles = 0;
        if (!env_->t_send(regs[insn.a], regs[insn.b], regs[insn.c], &status,
                          &cycles)) {
          return finish(Outcome::TrustedDenied, pc);
        }
        res.cycles += cycles;
        regs[kRegArg0] = status;
        break;
      }
      case Op::TDilp: {
        if (insn.imm >= kNumRegs) return finish(Outcome::BadInstruction, pc);
        std::uint32_t status = 0;
        std::uint64_t cycles = 0;
        if (!env_->t_dilp(regs[insn.a], regs[insn.b], regs[insn.c],
                          regs[insn.imm], &status, &cycles)) {
          return finish(Outcome::TrustedDenied, pc);
        }
        res.cycles += cycles;
        regs[kRegArg0] = status;
        break;
      }
      case Op::TUserCopy: {
        std::uint32_t status = 0;
        std::uint64_t cycles = 0;
        if (!env_->t_usercopy(regs[insn.a], regs[insn.b], regs[insn.c],
                              &status, &cycles)) {
          return finish(Outcome::TrustedDenied, pc);
        }
        res.cycles += cycles;
        regs[kRegArg0] = status;
        break;
      }

      case Op::TMsgLoad: {
        std::uint32_t value = 0;
        std::uint64_t cycles = 0;
        if (!env_->t_msgload(regs[insn.b] + insn.imm, &value, &cycles)) {
          return finish(Outcome::TrustedDenied, pc);
        }
        res.cycles += cycles;
        regs[insn.a] = value;
        break;
      }

      case Op::kCount:
        return finish(Outcome::BadInstruction, pc);
    }
    regs[kRegZero] = 0;  // r0 is hardwired
    pc = next;
  }
}

}  // namespace detail

ExecResult Interpreter::run(const ExecLimits& limits) {
  regs_[kRegZero] = 0;
  env_->bind_regs(regs_.data());
  detail::ResumeState rs;
  rs.budget = limits.software_budget;
  ExecResult res = detail::run_core(*prog_, *env_, regs_.data(), limits,
                                    jt_, rs, ExecResult{});
  if (trace::enabled()) {
    trace::global().emit_ctx(trace::EventType::VcodeExec,
                             trace::Engine::Interp,
                             static_cast<std::uint32_t>(res.outcome), 0,
                             res.cycles, res.insns);
  }
  return res;
}

ExecResult execute(const Program& prog, Env& env, const ExecLimits& limits,
                   std::uint32_t a0, std::uint32_t a1, std::uint32_t a2,
                   std::uint32_t a3) {
  Interpreter interp(prog, env);
  interp.set_args(a0, a1, a2, a3);
  return interp.run(limits);
}

}  // namespace ash::vcode
