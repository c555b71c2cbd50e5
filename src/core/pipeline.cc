#include "core/pipeline.hh"

#include <functional>
#include <utility>

#include "common/hash.hh"
#include "common/logging.hh"
#include "core/pipeline_adapters.hh"

namespace tetris
{

namespace
{

/**
 * The one concrete Pipeline: a registry id, a captured compile
 * callable, and a precomputed options hash. Every built-in adapter
 * is an instance of this with the entry-point options bound in.
 */
class BoundPipeline final : public Pipeline
{
  public:
    using RunFn = std::function<CompileResult(
        const std::vector<PauliBlock> &, const CouplingGraph &)>;

    BoundPipeline(std::string id, uint64_t options_hash, RunFn run)
        : id_(std::move(id)), optionsHash_(options_hash),
          run_(std::move(run))
    {
    }

    const std::string &name() const override { return id_; }

    CompileResult
    run(const std::vector<PauliBlock> &blocks,
        const CouplingGraph &hw) const override
    {
        return run_(blocks, hw);
    }

    uint64_t optionsHash() const override { return optionsHash_; }

  private:
    std::string id_;
    uint64_t optionsHash_;
    RunFn run_;
};

uint64_t
optionsContentHash(const PaulihedralOptions &opts)
{
    return fnvMix(kFnvOffset, opts.runPeephole);
}

uint64_t
optionsContentHash(const NaiveOptions &opts)
{
    return fnvMix(kFnvOffset, opts.route);
}

uint64_t
optionsContentHash(const MaxCancelOptions &opts)
{
    uint64_t h = fnvMix(kFnvOffset, opts.route);
    return fnvMix(h, opts.logicalPeephole);
}

} // namespace

uint64_t
optionsContentHash(const QaoaPassOptions &opts)
{
    uint64_t h = fnvMix(kFnvOffset, opts.enableBridging);
    h = fnvMix(h, opts.enableQubitReuse);
    return fnvMix(h, opts.runPeephole);
}

PipelinePtr
makeTetrisPipeline(TetrisOptions opts)
{
    return std::make_shared<BoundPipeline>(
        "tetris", optionsContentHash(opts),
        [opts](const std::vector<PauliBlock> &blocks,
               const CouplingGraph &hw) {
            return compileTetris(blocks, hw, opts);
        });
}

PipelinePtr
makePaulihedralPipeline(PaulihedralOptions opts)
{
    return std::make_shared<BoundPipeline>(
        "paulihedral", optionsContentHash(opts),
        [opts](const std::vector<PauliBlock> &blocks,
               const CouplingGraph &hw) {
            return compilePaulihedral(blocks, hw, opts);
        });
}

PipelinePtr
makeTketPipeline(TketFlavor flavor)
{
    return std::make_shared<BoundPipeline>(
        flavor == TketFlavor::O2 ? "tket-o2" : "tket-o3",
        fnvMix(kFnvOffset, static_cast<int>(flavor)),
        [flavor](const std::vector<PauliBlock> &blocks,
                 const CouplingGraph &hw) {
            return compileTketProxy(blocks, hw, flavor);
        });
}

PipelinePtr
makePcoastPipeline()
{
    return std::make_shared<BoundPipeline>(
        "pcoast", kFnvOffset,
        [](const std::vector<PauliBlock> &blocks,
           const CouplingGraph &hw) {
            return compilePcoastProxy(blocks, hw);
        });
}

PipelinePtr
makeNaivePipeline(NaiveOptions opts)
{
    return std::make_shared<BoundPipeline>(
        "naive", optionsContentHash(opts),
        [opts](const std::vector<PauliBlock> &blocks,
               const CouplingGraph &hw) {
            return compileNaive(blocks, hw, opts);
        });
}

PipelinePtr
makeMaxCancelPipeline(MaxCancelOptions opts)
{
    return std::make_shared<BoundPipeline>(
        "max-cancel", optionsContentHash(opts),
        [opts](const std::vector<PauliBlock> &blocks,
               const CouplingGraph &hw) {
            return compileMaxCancel(blocks, hw, opts);
        });
}

PipelinePtr
makeQaoa2qanPipeline()
{
    return std::make_shared<BoundPipeline>(
        "qaoa-2qan", kFnvOffset,
        [](const std::vector<PauliBlock> &blocks,
           const CouplingGraph &hw) {
            return compile2qanProxy(blocks, hw);
        });
}

PipelinePtr
makeQaoaBridgePipeline(QaoaPassOptions opts)
{
    return std::make_shared<BoundPipeline>(
        "qaoa-bridge", optionsContentHash(opts),
        [opts](const std::vector<PauliBlock> &blocks,
               const CouplingGraph &hw) {
            return compileQaoaTetris(blocks, hw, opts);
        });
}

PipelinePtr
defaultPipeline()
{
    static const PipelinePtr pipeline = makeTetrisPipeline();
    return pipeline;
}

PipelineRegistry::PipelineRegistry()
{
    factories_["tetris"] = [] { return makeTetrisPipeline(); };
    factories_["paulihedral"] = [] { return makePaulihedralPipeline(); };
    factories_["tket-o2"] = [] {
        return makeTketPipeline(TketFlavor::O2);
    };
    factories_["tket-o3"] = [] {
        return makeTketPipeline(TketFlavor::QiskitO3);
    };
    factories_["pcoast"] = [] { return makePcoastPipeline(); };
    factories_["naive"] = [] { return makeNaivePipeline(); };
    factories_["max-cancel"] = [] { return makeMaxCancelPipeline(); };
    factories_["qaoa-2qan"] = [] { return makeQaoa2qanPipeline(); };
    factories_["qaoa-bridge"] = [] { return makeQaoaBridgePipeline(); };
}

PipelineRegistry &
PipelineRegistry::instance()
{
    static PipelineRegistry registry;
    return registry;
}

bool
PipelineRegistry::contains(const std::string &id) const
{
    return factories_.count(id) > 0;
}

PipelinePtr
PipelineRegistry::create(const std::string &id) const
{
    auto it = factories_.find(id);
    if (it == factories_.end()) {
        std::string known;
        for (const auto &[known_id, f] : factories_)
            known += (known.empty() ? "" : ", ") + known_id;
        fatal("unknown pipeline '", id, "' (known: ", known, ")");
    }
    return it->second();
}

std::vector<std::string>
PipelineRegistry::ids() const
{
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[id, factory] : factories_)
        out.push_back(id);
    return out;
}

} // namespace tetris
