#pragma once
// The first-improvement swap scan as it stood before the profit masks:
// after every exchange it restarts `out` at item 0, walks every item as
// `in`, and tests each unselected higher-profit pair with an O(m) row-major
// feasibility check. A test oracle: tabu::swap_intensify must make exactly
// the same exchanges in the same order.

#include <cstddef>

#include "mkp/solution.hpp"
#include "tabu/intensify.hpp"

namespace pts::tabu {

std::size_t swap_intensify_reference(mkp::Solution& x, IntensifyStats* stats = nullptr);

}  // namespace pts::tabu
