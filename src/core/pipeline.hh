/**
 * @file
 * The pluggable compiler-pipeline registry.
 *
 * Every compiler stack the evaluation compares -- Tetris, the
 * Paulihedral / T|Ket> / PCOAST / 2QAN proxies, the naive and
 * max-cancel bounds, and the QAOA bridging pass -- sits behind one
 * Pipeline interface: name() (the registry id), run() (blocks +
 * device -> CompileResult), and optionsHash() (an FNV content hash
 * of every knob that changes the output). The batch engine dispatches
 * CompileJobs through this interface and keys its compile cache on
 * (name, optionsHash, blocks, device), so jobs for different
 * compilers over identical inputs can never alias.
 *
 * PipelineRegistry maps the built-in ids to factories producing
 * default-configured instances; the make*Pipeline() helpers in
 * core/pipeline_adapters.hh build configured ones. A compiler from
 * outside this repo needs no registration: implement Pipeline and
 * set CompileJob::pipeline to an instance -- no engine or
 * bench-harness changes (see the README "Pipeline registry"
 * section). This header is deliberately free of baselines/
 * dependencies so the engine layer stays decoupled from the
 * individual compiler stacks.
 */

#ifndef TETRIS_CORE_PIPELINE_HH
#define TETRIS_CORE_PIPELINE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "hardware/coupling_graph.hh"
#include "pauli/pauli_block.hh"

namespace tetris
{

/**
 * One compiler stack: a named, immutably-configured transformation
 * from (Pauli blocks, device) to a compiled circuit. Instances are
 * stateless across run() calls and safe to share between threads.
 */
class Pipeline
{
  public:
    virtual ~Pipeline() = default;

    /** Registry id ("tetris", "paulihedral", ...). */
    virtual const std::string &name() const = 0;

    /** Compile `blocks` for `hw` with this pipeline's options. */
    virtual CompileResult run(const std::vector<PauliBlock> &blocks,
                              const CouplingGraph &hw) const = 0;

    /**
     * Content hash of every option that influences run()'s output.
     * Two instances of the same pipeline hashing equal compile
     * equally; the engine mixes this (plus name()) into its cache
     * key.
     */
    virtual uint64_t optionsHash() const = 0;
};

using PipelinePtr = std::shared_ptr<const Pipeline>;

/**
 * Process-wide map from each built-in pipeline id to its factory,
 * built on first access and only read after that.
 */
class PipelineRegistry
{
  public:
    static PipelineRegistry &instance();

    bool contains(const std::string &id) const;

    /** Instantiate the default-configured `id` (fatal if unknown). */
    PipelinePtr create(const std::string &id) const;

    /** All registered ids, sorted. */
    std::vector<std::string> ids() const;

  private:
    using Factory = PipelinePtr (*)();

    PipelineRegistry(); // registers the built-ins

    std::map<std::string, Factory> factories_;
};

/**
 * The shared default-configured Tetris instance -- what a CompileJob
 * runs when no pipeline is set explicitly.
 */
PipelinePtr defaultPipeline();

} // namespace tetris

#endif // TETRIS_CORE_PIPELINE_HH
