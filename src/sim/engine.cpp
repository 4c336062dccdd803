#include "sim/engine.h"

// The queue is header-only (run_until is a template over the dispatch
// callback); this TU exists to compile the header standalone and anchor the
// library target.

namespace miras::sim {

static_assert(sizeof(Event) <= 40, "Event must stay small enough to move "
                                   "through the heap by value cheaply");

}  // namespace miras::sim
