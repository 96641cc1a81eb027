// Fragmentation statistics over a cluster Assignment.
//
// §2.2 motivates elasticity with the fragmentation problem: idle GPUs that
// are too scattered to satisfy any pending gang request are wasted. These
// statistics quantify that — how large a gang the current free pool could
// still place with full locality, and how scattered that pool is — and feed
// the simulation's cluster_frag_* gauges (DESIGN.md §10).
#pragma once

#include "cluster/assignment.hpp"
#include "cluster/topology.hpp"

namespace ones::cluster {

struct FragmentationStats {
  int idle_gpus = 0;
  /// Largest idle block within a single node (the biggest gang that can be
  /// placed with full locality).
  int largest_colocated_block = 0;
  /// Number of nodes with at least one idle GPU.
  int nodes_with_idle = 0;
  /// 0 = all idle GPUs sit on as few nodes as possible (no fragmentation);
  /// 1 = idle GPUs are maximally scattered. Undefined (0) when nothing idle.
  double scatter_index = 0.0;
};

FragmentationStats fragmentation_stats(const Assignment& assignment,
                                       const Topology& topology);

}  // namespace ones::cluster
