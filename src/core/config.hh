/**
 * @file
 * Out-of-order core configuration — exactly the parameter set the
 * paper's XpScalar exploration varies (Appendix A), plus fixed
 * structural defaults the paper holds constant.
 */

#ifndef CONTEST_CORE_CONFIG_HH
#define CONTEST_CORE_CONFIG_HH

#include <cstdint>
#include <string>

#include "bpred/bpred.hh"
#include "common/types.hh"
#include "mem/cache.hh"

namespace contest
{

/** Full parameterization of one core type. */
struct CoreConfig
{
    /** Core-type name (the benchmark it was customized for). */
    std::string name = "default";

    /** @name Appendix A parameters */
    /** @{ */
    /** Shared-level (memory) access latency in core cycles. */
    Cycles memAccessCycles{180};
    /** Front-end pipeline depth (fetch to rename) in stages. */
    unsigned frontEndDepth = 6;
    /** Dispatch, issue, and commit width. */
    unsigned width = 4;
    /** Reorder buffer / register file size. */
    unsigned robSize = 256;
    /** Issue queue size. */
    unsigned iqSize = 32;
    /** Minimum latency for awakening a dependent instruction. */
    Cycles wakeupLatency{1};
    /** Pipeline depth of the scheduler / register file read. */
    Cycles schedDepth{2};
    /** Clock period in picoseconds. */
    TimePs clockPeriodPs{300};
    /** L1 data cache geometry (latency in cycles). */
    CacheConfig l1d{1024, 2, 32, Cycles{2}, false};
    /** Private L2 cache geometry (latency in cycles). */
    CacheConfig l2{1024, 8, 128, Cycles{12}, false};
    /** Load-store queue size. */
    unsigned lsqSize = 128;
    /** @} */

    /** @name Structural defaults held constant across core types */
    /** @{ */
    /** L1D ports: memory instructions issued per cycle. */
    unsigned l1dPorts = 2;
    /** Outstanding cache misses (MSHRs). */
    unsigned mshrs = 8;
    /**
     * Shared-level (memory) bandwidth in bytes per nanosecond,
     * identical for every core type. One L2-block fill occupies the
     * bus for blockBytes / bandwidth nanoseconds.
     */
    double memBandwidthBytesPerNs = 16.0;
    /** Extra fetch-redirect penalty for a taken branch whose target
     *  missed in the BTB, in cycles. */
    Cycles btbMissPenalty{2};
    /** Cycles to run a synchronous exception handler. */
    Cycles syscallHandlerCycles{64};
    /** Direction predictor geometry. */
    BPredConfig bpred{};
    /** Branch target buffer geometry. */
    BtbConfig btb{};
    /**
     * Model the L1 instruction cache. The paper's Appendix A does
     * not vary I-cache geometry across the customized cores, so the
     * palette runs with a perfect I-cache by default; enabling this
     * charges fetch-group misses through the (unified) L2.
     */
    bool modelICache = false;
    /** L1 instruction cache geometry (when modeled). The synthetic
     *  workloads' code regions total ~100KB per benchmark, so the
     *  default is sized like a shared-era 64KB L1I. */
    CacheConfig l1i{512, 2, 64, Cycles{1}, false};
    /** @} */

    /** Clock frequency in GHz, derived from the period. */
    double
    frequencyGHz() const
    {
        return 1000.0 / static_cast<double>(clockPeriodPs.count());
    }

    /**
     * Peak retirement rate in instructions per nanosecond — the
     * quantity the paper's saturated-lagger condition (Section
     * 4.1.4) compares across cores.
     */
    double
    peakIps() const
    {
        return static_cast<double>(width) * static_cast<double>(psPerNs)
            / static_cast<double>(clockPeriodPs.count());
    }

    /** Bus occupancy of one L2-block fill, in core cycles. */
    Cycles
    loadFillGapCycles() const
    {
        double gap_ps = static_cast<double>(l2.blockBytes)
            * static_cast<double>(psPerNs) / memBandwidthBytesPerNs;
        return static_cast<Cycles>(
            gap_ps / static_cast<double>(clockPeriodPs.count()) + 0.999);
    }

    /** Bus occupancy of one write-through word drain, in cycles. */
    Cycles
    storeDrainGapCycles() const
    {
        double gap_ps =
            8.0 * static_cast<double>(psPerNs) / memBandwidthBytesPerNs;
        return static_cast<Cycles>(
            gap_ps / static_cast<double>(clockPeriodPs.count()) + 0.999);
    }

    /** fatal() if any parameter is structurally impossible. */
    void validate() const;
};

} // namespace contest

#endif // CONTEST_CORE_CONFIG_HH
