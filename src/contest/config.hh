/**
 * @file
 * Configuration of a contesting system (paper Section 4).
 */

#ifndef CONTEST_CONTEST_CONFIG_HH
#define CONTEST_CONTEST_CONFIG_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "core/ooo_core.hh"

namespace contest
{

/** Knobs of the contesting machinery shared by all cores. */
struct ContestConfig
{
    /**
     * Core-to-core propagation latency of the global result buses,
     * in picoseconds. The paper's baseline is 1 ns (three cycles of
     * a 3 GHz core); Figure 8 sweeps it up to 100 ns.
     */
    TimePs grbLatencyPs{1000};

    /**
     * Result FIFO capacity in entries. This bounds the lagging
     * distance (Section 4.1.4): a core whose FIFO overflows cannot
     * keep up with the leader and is a saturated lagger.
     */
    std::size_t fifoCapacity = 8192;

    /** Synchronizing store queue capacity (Section 4.2). */
    std::size_t storeQueueCapacity = 4096;

    /** How popped results complete instructions (Section 4.1.3). */
    InjectionStyle injectionStyle = InjectionStyle::PortSteal;

    /** Enable the Figure 5 early-branch-resolution corner case. */
    bool earlyBranchResolve = true;

    /** Park saturated laggers instead of letting them drop results
     *  (Section 4.1.4's "disabling contesting mode"). */
    bool parkSaturatedLaggers = true;

    /** Cost of the parallelized exception handler, once every
     *  contesting core has reached the exception (Section 4.3). */
    TimePs syscallHandlerPs{20'000};

    /**
     * Deadlock watchdog: panic after this many simulated core ticks
     * without the retire frontier advancing. The budget counts
     * *simulated* ticks including fast-forwarded ones — an elided
     * idle stretch spends it exactly like per-cycle stepping, so
     * idle-cycle skipping can neither mask a deadlock nor falsely
     * trigger the panic. Large enough that the slowest palette core
     * at the longest Figure 8 bus latency never trips it; tests
     * shrink it to exercise the watchdog quickly.
     */
    std::uint64_t deadlockStuckTicks = 40'000'000;
};

} // namespace contest

#endif // CONTEST_CONTEST_CONFIG_HH
