#include "hintm.hh"

#include <sstream>

namespace hintm
{
namespace core
{

const char *
mechanismName(Mechanism m)
{
    switch (m) {
      case Mechanism::Baseline: return "baseline";
      case Mechanism::StaticOnly: return "HinTM-st";
      case Mechanism::DynamicOnly: return "HinTM-dyn";
      case Mechanism::Full: return "HinTM";
    }
    return "?";
}

std::string
SystemOptions::label() const
{
    std::string s = htm::htmKindName(htmKind);
    s += "/";
    s += mechanismName(mechanism);
    if (preserveReadOnly)
        s += "+preserve";
    return s;
}

sim::MachineConfig
makeMachineConfig(const SystemOptions &opts)
{
    sim::MachineConfig cfg;
    cfg.numCores = opts.numCores;
    cfg.smtPerCore = opts.smtPerCore;
    cfg.seed = opts.seed;

    cfg.htm.kind = opts.htmKind;
    cfg.htm.bufferEntries = opts.bufferEntries;
    cfg.htm.signatureBits = opts.signatureBits;
    cfg.htm.preAbortHandler = opts.preAbortHandler;
    cfg.htm.conflictPolicy = opts.conflictPolicy;
    cfg.maxRetries = opts.maxRetries;

    const bool dyn = opts.mechanism == Mechanism::DynamicOnly ||
                     opts.mechanism == Mechanism::Full;
    cfg.staticHints = opts.mechanism == Mechanism::StaticOnly ||
                      opts.mechanism == Mechanism::Full;
    cfg.dynamicHints = dyn;
    cfg.annotationHints = opts.notaryAnnotations;
    cfg.vm.dynamicClassification = dyn;
    cfg.vm.preserveReadOnly = opts.preserveReadOnly;

    cfg.collectTxSizes = opts.collectTxSizes;
    cfg.profileSharing = opts.profileSharing;
    cfg.validateSafeStores = opts.validateSafeStores;
    cfg.collectRawStats = opts.collectRawStats;
    cfg.hintOracle = opts.hintOracle;
    cfg.journal = opts.journal;
    cfg.journalCapacity = opts.journalCapacity;
    cfg.metrics = opts.metrics;

    cfg.mem.numaNodes = opts.numaNodes;
    cfg.mem.numaRemoteLatency = opts.numaRemoteLatency;
    return cfg;
}

compiler::SafetyReport
compileHints(tir::Module &mod)
{
    return compiler::annotateSafety(mod);
}

sim::RunResult
simulate(const SystemOptions &opts, const tir::Module &mod,
         unsigned threads)
{
    return sim::runMachine(makeMachineConfig(opts), mod, threads);
}

std::string
describeConfig(const sim::MachineConfig &cfg)
{
    std::ostringstream os;
    os << "CPU       : " << cfg.numCores << " cores x " << cfg.smtPerCore
       << " SMT contexts, 1 cycles/non-mem instr\n";
    os << "L1d       : " << cfg.mem.l1SizeBytes / 1024 << "KB "
       << cfg.mem.l1Assoc << "-way, 64B blocks, " << cfg.mem.l1Latency
       << "-cycle latency\n";
    os << "L2        : " << cfg.mem.l2SizeBytes / (1024 * 1024) << "MB "
       << cfg.mem.l2Assoc << "-way shared, " << cfg.mem.l2Latency
       << "-cycle latency\n";
    os << "Memory    : " << cfg.mem.memLatency << "-cycle latency\n";
    os << "Coherence : "
       << (cfg.mem.directory
               ? "directory MESI (per-block sharer and TX-tracker masks)"
               : "snoopy MESI (broadcast)");
    if (cfg.mem.numaNodes > 1) {
        os << ", " << cfg.mem.numaNodes << " NUMA nodes (+"
           << cfg.mem.numaRemoteLatency << "-cycle remote home)";
    }
    os << "\n";
    os << "HTM       : " << htm::htmKindName(cfg.htm.kind) << ", "
       << cfg.htm.bufferEntries << "-entry TX buffer";
    if (cfg.htm.kind == htm::HtmKind::P8S)
        os << ", " << cfg.htm.signatureBits << "-bit read signature";
    os << "\n";
    os << "HinTM     : static hints "
       << (cfg.staticHints ? "on" : "off") << ", dynamic hints "
       << (cfg.dynamicHints ? "on" : "off");
    if (cfg.vm.preserveReadOnly)
        os << " (+preserve-ro)";
    os << "\n";
    os << "VM        : " << cfg.vm.tlbEntries << "-entry TLB, "
       << cfg.vm.shootdownInitiatorCycles << "/"
       << cfg.vm.shootdownSlaveCycles << "-cycle shootdown, "
       << cfg.vm.minorFaultCycles << "-cycle minor fault\n";
    return os.str();
}

} // namespace core
} // namespace hintm
