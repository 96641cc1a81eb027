#include "cluster/topology.hpp"

#include <unordered_set>

#include "common/expect.hpp"

namespace ones::cluster {

Topology::Topology(const TopologyConfig& config) : config_(config) {
  ONES_EXPECT(config.num_nodes > 0);
  ONES_EXPECT(config.gpus_per_node > 0);
  ONES_EXPECT(config.intra_node_bw_Bps > 0.0 && config.inter_node_bw_Bps > 0.0);
}

std::vector<GpuId> Topology::gpus_of(NodeId node) const {
  ONES_EXPECT(node >= 0 && node < config_.num_nodes);
  std::vector<GpuId> out;
  out.reserve(config_.gpus_per_node);
  for (int i = 0; i < config_.gpus_per_node; ++i) {
    out.push_back(node * config_.gpus_per_node + i);
  }
  return out;
}

int Topology::nodes_spanned(const std::vector<GpuId>& gpus) const {
  std::unordered_set<NodeId> nodes;
  for (GpuId g : gpus) nodes.insert(node_of(g));
  return static_cast<int>(nodes.size());
}

LinkProfile Topology::link_profile(const std::vector<GpuId>& gpus) const {
  ONES_EXPECT(!gpus.empty());
  // One node iff every worker shares the first one's node (the set may be in
  // any order; every GPU id is still range-checked by node_of).
  const NodeId first = node_of(gpus.front());
  bool one_node = true;
  for (GpuId g : gpus) {
    if (node_of(g) != first) one_node = false;
  }
  if (one_node) return {config_.intra_node_bw_Bps, config_.intra_node_latency_s};
  return {config_.inter_node_bw_Bps, config_.inter_node_latency_s};
}

}  // namespace ones::cluster
