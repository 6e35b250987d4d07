/**
 * @file
 * A materialized dynamic instruction trace plus summary statistics.
 */

#ifndef CONTEST_TRACE_TRACE_HH
#define CONTEST_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/decode.hh"
#include "trace/instr.hh"

namespace contest
{

/** Aggregate composition statistics of a trace. */
struct TraceMix
{
    std::uint64_t alu = 0;
    std::uint64_t mul = 0;
    std::uint64_t div = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t uncondBranches = 0;
    std::uint64_t syscalls = 0;

    std::uint64_t
    total() const
    {
        return alu + mul + div + loads + stores + condBranches
            + uncondBranches + syscalls;
    }
};

/**
 * The retired dynamic instruction stream of one workload, together
 * with the generator's phase annotation (which archetype produced
 * each instruction — used by tests and analysis tools only; the
 * timing models never look at it).
 */
class Trace
{
  public:
    Trace() = default;

    /** @param workload_name human-readable workload identifier */
    explicit Trace(std::string workload_name)
        : name_(std::move(workload_name))
    {}

    /** Reserve storage for the expected instruction count. */
    void
    reserve(std::size_t n)
    {
        insts.reserve(n);
        phases.reserve(n);
        flags_.reserve(n);
    }

    /** Append one instruction produced by the given phase id. */
    void
    push(const TraceInst &inst, std::uint8_t phase_id)
    {
        insts.push_back(inst);
        phases.push_back(phase_id);
        flags_.push_back(decodeFlags(inst));
    }

    /** Number of instructions in the trace. */
    std::size_t size() const { return insts.size(); }

    /** Is the trace empty? */
    bool empty() const { return insts.empty(); }

    /** The i-th retired instruction. */
    const TraceInst &operator[](std::size_t i) const { return insts[i]; }

    /** The retired instruction at stream position @p seq. */
    const TraceInst &
    operator[](InstSeq seq) const
    {
        return insts[static_cast<std::size_t>(seq.count())];
    }

    /** One past the last stream position — the typed size(), so
     *  fetch/retire counters compare without leaving the unit. */
    InstSeq endSeq() const { return InstSeq{insts.size()}; }

    /** Raw base of the instruction array (batched-decode access). */
    const TraceInst *data() const { return insts.data(); }

    /** Raw base of the pre-decoded flags array, parallel to data(). */
    const std::uint8_t *decodedFlags() const { return flags_.data(); }

    /** Generator phase id of the i-th instruction. */
    std::uint8_t phaseOf(std::size_t i) const { return phases[i]; }

    /** Workload name. */
    const std::string &name() const { return name_; }

    /** Compute the operation mix of the whole trace. */
    TraceMix mix() const;

    /**
     * Number of phase changes (adjacent instructions whose phase ids
     * differ) — a direct measure of fine-grain behaviour variation.
     */
    std::uint64_t phaseChanges() const;

  private:
    std::string name_;
    std::vector<TraceInst> insts;
    std::vector<std::uint8_t> phases;
    /** Pre-decoded flags byte per instruction, parallel to insts. */
    std::vector<std::uint8_t> flags_;
};

/** Shared ownership alias; traces are immutable once generated. */
using TracePtr = std::shared_ptr<const Trace>;

} // namespace contest

#endif // CONTEST_TRACE_TRACE_HH
