/**
 * @file
 * Forwarding header: sim::SimRun lives in sim/machine.hh. Kept only for
 * perfbench, which includes this path.
 */

#ifndef HINTM_SIM_SNAPSHOT_HH
#define HINTM_SIM_SNAPSHOT_HH

#include "sim/machine.hh"

#endif // HINTM_SIM_SNAPSHOT_HH
