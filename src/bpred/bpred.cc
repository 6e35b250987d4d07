#include "bpred/bpred.hh"

#include "common/log.hh"

namespace contest
{

BranchPredictor::BranchPredictor(const BPredConfig &config)
    : cfg(config)
{
    fatal_if(cfg.tableBits == 0 || cfg.tableBits > 24,
             "predictor tableBits %u out of range", cfg.tableBits);
    fatal_if(cfg.historyBits > 32,
             "predictor historyBits %u out of range", cfg.historyBits);
    fatal_if(cfg.localHistBits == 0 || cfg.localHistBits > 16,
             "predictor localHistBits %u out of range",
             cfg.localHistBits);
    fatal_if(cfg.localTableBits == 0 || cfg.localTableBits > 20,
             "predictor localTableBits %u out of range",
             cfg.localTableBits);

    std::size_t entries = std::size_t{1} << cfg.tableBits;
    historyMask = (std::uint64_t{1} << cfg.historyBits) - 1;
    localHistMask =
        (std::uint32_t{1} << cfg.localHistBits) - 1;

    gshare.assign(entries, 1);
    local.assign(std::size_t{1} << cfg.localHistBits, 1);
    localHist.assign(std::size_t{1} << cfg.localTableBits, 0);
    choice.assign(entries, 1);
}

std::size_t
BranchPredictor::choiceIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << cfg.tableBits) - 1);
}

std::size_t
BranchPredictor::gshareIndex(Addr pc) const
{
    return ((pc >> 2) ^ (history & historyMask))
        & ((std::size_t{1} << cfg.tableBits) - 1);
}

std::size_t
BranchPredictor::localHistIndex(Addr pc) const
{
    return (pc >> 2) & ((std::size_t{1} << cfg.localTableBits) - 1);
}

bool
BranchPredictor::predictAndTrain(Addr pc, bool actual_taken,
                                 bool count)
{
    if (count)
        ++numLookups;

    // Alpha-21264-style: a per-branch local-history component
    // competes with a global gshare component.
    std::uint16_t &hist = localHist[localHistIndex(pc)];
    const std::size_t li = hist & localHistMask;
    const std::size_t gi = gshareIndex(pc);
    const std::size_t ci = choiceIndex(pc);
    const bool loc_pred = local.taken(li);
    const bool gsh_pred = gshare.taken(gi);
    const bool prediction = choice.taken(ci) ? gsh_pred : loc_pred;
    if (loc_pred != gsh_pred)
        choice.train(ci, gsh_pred == actual_taken);
    local.train(li, actual_taken);
    gshare.train(gi, actual_taken);
    hist = static_cast<std::uint16_t>(
        ((hist << 1) | (actual_taken ? 1 : 0)) & localHistMask);

    history = ((history << 1) | (actual_taken ? 1 : 0)) & historyMask;

    if (count && prediction != actual_taken)
        ++numMispredicts;
    return prediction;
}

Btb::Btb(const BtbConfig &config)
    : cfg(config)
{
    fatal_if(cfg.sets == 0 || (cfg.sets & (cfg.sets - 1)) != 0,
             "BTB sets must be a non-zero power of two (got %u)",
             cfg.sets);
    fatal_if(cfg.assoc == 0, "BTB associativity must be non-zero");
    const std::size_t n = std::size_t{cfg.sets} * cfg.assoc;
    tags.assign(n, 0);
    targets.assign(n, 0);
    lastUse.assign(n, 0);
    validW.assign(maskWords(n), 0);
}

bool
Btb::lookupAndTrain(Addr pc, Addr actual_target)
{
    ++numLookups;
    ++useClock;

    std::size_t set = (pc >> 2) & (cfg.sets - 1);
    const std::size_t base = set * cfg.assoc;

    // Same walk the old array-of-structs code did: hit on a valid
    // matching tag, else victimize the last invalid way, else the
    // LRU (min lastUse) valid way.
    std::size_t found = base + cfg.assoc; // sentinel: one past set
    std::size_t victim = base;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        const std::size_t e = base + w;
        const bool valid = bitTest(validW, e);
        if (valid && tags[e] == pc) {
            found = e;
            break;
        }
        if (!valid) {
            victim = e;
        } else if (bitTest(validW, victim)
                   && lastUse[e] < lastUse[victim]) {
            victim = e;
        }
    }

    bool correct = false;
    if (found != base + cfg.assoc) {
        correct = targets[found] == actual_target;
        targets[found] = actual_target;
        lastUse[found] = useClock;
    } else {
        bitSet(validW, victim);
        tags[victim] = pc;
        targets[victim] = actual_target;
        lastUse[victim] = useClock;
    }

    if (correct)
        ++numHits;
    return correct;
}

} // namespace contest
