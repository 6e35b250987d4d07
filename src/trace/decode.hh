/**
 * @file
 * Batched pre-decode of the instruction stream (DESIGN.md §12).
 *
 * The fetch stage used to re-derive "is this a load / store / branch
 * / syscall, does it write a register" from OpClass for every
 * instruction, every cycle, on every core. A trace is immutable once
 * generated, so those predicates are computed exactly once at trace
 * construction and stored as one flags byte per instruction in an
 * array parallel to the TraceInst array. The core's fetch stage
 * indexes both arrays directly, and the per-cycle loops reduce every
 * predicate to a single AND.
 */

#ifndef CONTEST_TRACE_DECODE_HH
#define CONTEST_TRACE_DECODE_HH

#include <cstdint>

#include "trace/instr.hh"

namespace contest
{

/** @name Pre-decoded instruction flags (one byte per instruction) */
/** @{ */
constexpr std::uint8_t kDecLoad = 1u << 0;
constexpr std::uint8_t kDecStore = 1u << 1;
constexpr std::uint8_t kDecCondBr = 1u << 2;
constexpr std::uint8_t kDecUncondBr = 1u << 3;
constexpr std::uint8_t kDecSyscall = 1u << 4;
constexpr std::uint8_t kDecTaken = 1u << 5;      //!< branch outcome
constexpr std::uint8_t kDecWritesReg = 1u << 6;  //!< dst != invalidReg

/** Composite masks for the common compound predicates. */
constexpr std::uint8_t kDecMem = kDecLoad | kDecStore;
constexpr std::uint8_t kDecBranch = kDecCondBr | kDecUncondBr;
/** @} */

/** Decode one instruction's flags byte (trace-construction time). */
constexpr std::uint8_t
decodeFlags(const TraceInst &inst)
{
    std::uint8_t f = 0;
    switch (inst.op) {
      case OpClass::Load:
        f |= kDecLoad;
        break;
      case OpClass::Store:
        f |= kDecStore;
        break;
      case OpClass::BranchCond:
        f |= kDecCondBr;
        break;
      case OpClass::BranchUncond:
        f |= kDecUncondBr;
        break;
      case OpClass::Syscall:
        f |= kDecSyscall;
        break;
      default:
        break;
    }
    if (inst.taken)
        f |= kDecTaken;
    if (inst.dst != invalidReg)
        f |= kDecWritesReg;
    return f;
}

} // namespace contest

#endif // CONTEST_TRACE_DECODE_HH
