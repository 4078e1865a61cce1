// Umbrella header: the full public API of the bcast library.
//
// #include "core/bcast.h" pulls in the index-tree model, broadcast-schedule
// substrate, all allocation algorithms (exact searches, heuristics,
// baselines), the client access protocol and its population simulator, and
// the planner facade.

#ifndef BCAST_CORE_BCAST_H_
#define BCAST_CORE_BCAST_H_

#include "alloc/allocation.h"       // IWYU pragma: export
#include "alloc/baselines.h"        // IWYU pragma: export
#include "alloc/data_tree.h"        // IWYU pragma: export
#include "alloc/heuristics.h"       // IWYU pragma: export
#include "alloc/optimal.h"          // IWYU pragma: export
#include "alloc/personnel.h"        // IWYU pragma: export
#include "alloc/replication.h"      // IWYU pragma: export
#include "alloc/topo_search.h"      // IWYU pragma: export
#include "broadcast/cost.h"         // IWYU pragma: export
#include "broadcast/pointers.h"     // IWYU pragma: export
#include "broadcast/program_io.h"   // IWYU pragma: export
#include "broadcast/schedule.h"     // IWYU pragma: export
#include "broadcast/schedule_builder.h"  // IWYU pragma: export
#include "core/planner.h"           // IWYU pragma: export
#include "fault/fault_model.h"      // IWYU pragma: export
#include "popsim/popsim.h"          // IWYU pragma: export
#include "sim/client_sim.h"         // IWYU pragma: export
#include "sim/server_sim.h"         // IWYU pragma: export
#include "tree/alphabetic.h"        // IWYU pragma: export
#include "tree/builders.h"          // IWYU pragma: export
#include "tree/index_tree.h"        // IWYU pragma: export
#include "tree/tree_io.h"           // IWYU pragma: export
#include "util/status.h"            // IWYU pragma: export
#include "verify/verifier.h"        // IWYU pragma: export
#include "workload/frequency.h"     // IWYU pragma: export
#include "workload/population.h"    // IWYU pragma: export
#include "workload/weights.h"       // IWYU pragma: export

#endif  // BCAST_CORE_BCAST_H_
