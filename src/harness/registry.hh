/**
 * @file
 * The experiment registry. Each figure/table/ablation registers
 * itself once (REGISTER_EXPERIMENT) as a function over a shared
 * Runner and an ArtifactSink; the contest_bench driver then runs
 * any subset in one process, so the Runner's memoized runs are
 * simulated once for the whole suite.
 */

#ifndef CONTEST_HARNESS_REGISTRY_HH
#define CONTEST_HARNESS_REGISTRY_HH

#include <string>
#include <vector>

#include "harness/artifact.hh"
#include "harness/runner.hh"

namespace contest
{

struct ExperimentContext;

using ExperimentFn = void (*)(ExperimentContext &);

/** One registered experiment. */
struct ExperimentInfo
{
    std::string name;  //!< selector, e.g. "fig06"
    std::string title; //!< human title, e.g. "Figure 6: ..."
    ExperimentFn fn = nullptr;
    /**
     * Always true: every registered experiment belongs to the
     * suite. Kept only because perfbench/probe.cc still filters on
     * it.
     */
    bool inSuite = true;
};

/** Everything an experiment body needs. */
struct ExperimentContext
{
    Runner &runner;
    ArtifactSink &sink;
    /** The experiment's own registration (artifact name/title). */
    const ExperimentInfo &info;

    /** A fresh artifact named after this experiment, stamped with
     *  the runner's settings. */
    FigureArtifact
    artifact() const
    {
        return FigureArtifact(info.name, info.title,
                              ArtifactMeta(runner.settings()));
    }
};

/**
 * Name-addressed collection of experiments. Normally used through
 * the process-wide instance() that REGISTER_EXPERIMENT populates;
 * directly constructible so tests can build private registries.
 */
class ExperimentRegistry
{
  public:
    /** The process-wide registry. */
    static ExperimentRegistry &instance();

    /** Register one experiment; fatal() on a duplicate name. */
    void add(ExperimentInfo info);

    /** Experiment by name, or nullptr. */
    const ExperimentInfo *find(const std::string &name) const;

    /**
     * All experiments sorted by name (static-initialization order
     * across translation units is unspecified, so the sorted view
     * is the deterministic one).
     */
    std::vector<const ExperimentInfo *> all() const;

    /** Number of registered experiments. */
    std::size_t size() const { return experiments.size(); }

  private:
    std::vector<ExperimentInfo> experiments;
};

/** Registration helper for namespace-scope static objects. */
struct ExperimentRegistrar
{
    ExperimentRegistrar(const char *name, const char *title,
                        ExperimentFn fn)
    {
        ExperimentRegistry::instance().add(
            ExperimentInfo{name, title, fn});
    }
};

} // namespace contest

/**
 * Register @p fn under @p name in the process-wide registry. Use at
 * namespace scope, one registration per experiment translation unit.
 */
#define REGISTER_EXPERIMENT(name, title, fn)                          \
    static const ::contest::ExperimentRegistrar                       \
        experimentRegistrar_##fn{name, title, fn}

#endif // CONTEST_HARNESS_REGISTRY_HH
