/**
 * @file
 * Branch direction predictor and branch target buffer.
 *
 * Appendix A of the paper does not vary predictor geometry across
 * the customized cores, so every core instantiates the same
 * tournament predictor (DESIGN.md §5); its table geometry and the
 * BTB's remain parameters of their configs.
 *
 * The core model fetches only correct-path instructions (trace
 * driven), so predictors are updated with the architectural outcome
 * at prediction time; a misprediction is detected by comparing the
 * prediction with the trace's outcome and charged as a timing
 * penalty when the branch resolves.
 */

#ifndef CONTEST_BPRED_BPRED_HH
#define CONTEST_BPRED_BPRED_HH

#include <cstdint>
#include <vector>

#include "common/soa.hh"
#include "common/types.hh"

namespace contest
{

/**
 * A table of 2-bit saturating counters packed 32 per uint64 word
 * (DESIGN.md §12): a default 8K-entry PHT is 2 KiB instead of 8 KiB,
 * so the tournament predictor's gshare, local and choice tables stay
 * L1-resident per core.
 */
class PackedSatCounters
{
  public:
    /** Size to @p n counters, each initialized to @p init in [0,3]. */
    void
    assign(std::size_t n, std::uint8_t init)
    {
        // Replicate the 2-bit init pattern across the word.
        words.assign((n + 31) / 32,
                     std::uint64_t{0x5555555555555555ull} * init);
    }

    /** Raw value of counter @p i. */
    std::uint8_t
    raw(std::size_t i) const
    {
        return (words[i >> 5] >> ((i & 31) * 2)) & 3;
    }

    /** Predicted direction of counter @p i. */
    bool taken(std::size_t i) const { return raw(i) >= 2; }

    /** Train counter @p i toward the given outcome, saturating. */
    void
    train(std::size_t i, bool taken_outcome)
    {
        std::uint64_t &w = words[i >> 5];
        const unsigned sh = (i & 31) * 2;
        std::uint8_t v = (w >> sh) & 3;
        if (taken_outcome) {
            if (v < 3)
                ++v;
        } else {
            if (v > 0)
                --v;
        }
        w = (w & ~(std::uint64_t{3} << sh))
            | (std::uint64_t{v} << sh);
    }

  private:
    SoaVec<std::uint64_t> words;
};

/** Geometry of the tournament direction predictor. */
struct BPredConfig
{
    unsigned tableBits = 13;    //!< log2 entries of the gshare and
                                //!< choice tables
    unsigned historyBits = 12;  //!< global history length (gshare)
    unsigned localHistBits = 10;//!< per-branch history length
    unsigned localTableBits = 10;//!< log2 entries of the local
                                 //!< history table
};

/**
 * Branch direction predictor: an Alpha-21264-style tournament of a
 * global gshare component and a per-branch local-history component,
 * arbitrated by a PC-indexed choice table. The local component is
 * what captures short loop periods that pollute the shared global
 * history.
 */
class BranchPredictor
{
  public:
    /** Build the tables described by the config. */
    explicit BranchPredictor(const BPredConfig &config);

    /**
     * Predict the direction of the branch at pc, then train all
     * tables and the global history with the actual outcome.
     *
     * @param pc branch address
     * @param actual_taken architectural outcome from the trace
     * @param count update the lookup/misprediction statistics
     *        (false when training on an injected branch whose
     *        outcome came from a result FIFO and was never
     *        predicted)
     * @return the direction that was predicted (before training)
     */
    bool predictAndTrain(Addr pc, bool actual_taken,
                         bool count = true);

    /** Lifetime conditional-branch predictions made. */
    LookupCount lookups() const { return numLookups; }

    /** Lifetime mispredictions. */
    std::uint64_t mispredicts() const { return numMispredicts; }

    /** Misprediction rate in [0, 1]. */
    double
    mispredictRate() const
    {
        return numLookups != LookupCount{}
            ? static_cast<double>(numMispredicts)
                / static_cast<double>(numLookups.count())
            : 0.0;
    }

  private:
    std::size_t choiceIndex(Addr pc) const;
    std::size_t gshareIndex(Addr pc) const;
    std::size_t localHistIndex(Addr pc) const;

    BPredConfig cfg;
    /** Bit-packed pattern-history tables (2 bits per counter). */
    PackedSatCounters gshare;
    PackedSatCounters local;
    /** Per-branch histories: localHistBits <= 16, so one uint16
     *  per branch keeps the whole table in a few cachelines. */
    SoaVec<std::uint16_t> localHist;
    PackedSatCounters choice;
    std::uint64_t history = 0;
    std::uint64_t historyMask;
    std::uint32_t localHistMask = 0;
    LookupCount numLookups{};
    std::uint64_t numMispredicts = 0;
};

/** Branch target buffer configuration. */
struct BtbConfig
{
    unsigned sets = 512;
    unsigned assoc = 4;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    explicit Btb(const BtbConfig &config);

    /**
     * Look up the target for the branch at pc and train the entry
     * with the actual target.
     *
     * @param pc branch address
     * @param actual_target architectural target from the trace
     * @return true iff the BTB held the correct target before
     *         training (i.e. the front end could redirect at fetch)
     */
    bool lookupAndTrain(Addr pc, Addr actual_target);

    /** Lifetime lookups. */
    LookupCount lookups() const { return numLookups; }

    /** Lifetime lookups that hit with the correct target. */
    std::uint64_t hits() const { return numHits; }

  private:
    BtbConfig cfg;
    /** Structure-of-arrays entry storage indexed set * assoc + way;
     *  the valid flags are one bit each, so a whole set's validity
     *  and the tag run needed by the way loop stay in L1. */
    SoaVec<Addr> tags;
    SoaVec<Addr> targets;
    SoaVec<std::uint64_t> lastUse;
    SoaVec<std::uint64_t> validW;
    std::uint64_t useClock = 0;
    LookupCount numLookups{};
    std::uint64_t numHits = 0;
};

} // namespace contest

#endif // CONTEST_BPRED_BPRED_HH
