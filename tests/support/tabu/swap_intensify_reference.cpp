#include "tabu/swap_intensify_reference.hpp"

namespace pts::tabu {

namespace {

/// Would dropping `out` and adding `in` keep every constraint satisfied?
bool exchange_feasible(const mkp::Solution& x, std::size_t out, std::size_t in) {
  const auto& inst = x.instance();
  const std::size_t m = inst.num_constraints();
  for (std::size_t i = 0; i < m; ++i) {
    const double load = x.load(i) - inst.weight(i, out) + inst.weight(i, in);
    if (load > inst.capacity(i)) return false;
  }
  return true;
}

}  // namespace

std::size_t swap_intensify_reference(mkp::Solution& x, IntensifyStats* stats) {
  const auto& inst = x.instance();
  const std::size_t n = inst.num_items();
  std::size_t applied = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t out = 0; out < n && !changed; ++out) {
      if (!x.contains(out)) continue;
      for (std::size_t in = 0; in < n; ++in) {
        if (x.contains(in)) continue;
        if (inst.profit(in) <= inst.profit(out)) continue;
        if (!exchange_feasible(x, out, in)) continue;
        x.drop(out);
        x.add(in);
        ++applied;
        changed = true;
        break;
      }
    }
  }
  if (stats) stats->swaps += applied;
  return applied;
}

}  // namespace pts::tabu
