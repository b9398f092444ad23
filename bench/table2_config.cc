/**
 * @file
 * Prints the active simulation parameters (paper Table II) for every
 * named configuration, plus HinTM's hardware additions (Table I) as
 * modeled by this implementation.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/cli.hh"
#include "core/hintm.hh"

using namespace hintm;

static int
run(int argc, char **argv)
{
    // No simulations here. The shared flags that loops such as
    // reproduce_all.sh pass every harness (--jobs and the scale flags)
    // are accepted; a flag that asks for runs or their reports is not.
    bench::BenchArgs args;
    args.parse(argc, argv, bench::flags::Scale | bench::flags::Jobs);
    std::cout << "== Table II: simulation parameters ==\n\n";
    for (htm::HtmKind kind :
         {htm::HtmKind::P8, htm::HtmKind::P8S, htm::HtmKind::L1TM,
          htm::HtmKind::InfCap}) {
        core::SystemOptions o;
        o.htmKind = kind;
        o.mechanism = core::Mechanism::Full;
        std::cout << "-- " << o.label() << " --\n"
                  << core::describeConfig(core::makeMachineConfig(o))
                  << "\n";
    }

    std::cout << "== Table I: HinTM hardware additions (as modeled) ==\n"
              << "Core           : safety-flag bit on load/store "
                 "(TxIR `safe` flag; zero timing cost)\n"
              << "TLB            : 2 bits per entry (shared, ro) "
                 "caching page safety state\n"
              << "Page table     : tid + shared + ro per entry "
                 "(Fig. 2 state machine in src/vm)\n"
              << "HTM controller : skip-tracking path for safe "
                 "accesses; safe-page set per TX for page-mode aborts\n";
    return 0;
}

int
main(int argc, char **argv)
{
    return hintm::runMain(argc, argv, run);
}
