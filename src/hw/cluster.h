// Cluster topology: homogeneous nodes, each with `gpus_per_node` GPUs linked
// by NVLink; nodes linked by an InfiniBand fabric (paper: 4 nodes x 8 V100,
// NVLink intra-node, 100 Gb/s IB inter-node).
//
// Devices are identified by a dense global index [0, num_gpus()). Parallel
// configurations assign contiguous device ranges to pipeline stages, so the
// topology questions this module answers are of the form "does the device
// group [first, first+size) with stride `stride` cross a node boundary?".

#ifndef SRC_HW_CLUSTER_H_
#define SRC_HW_CLUSTER_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/hw/gpu_spec.h"

namespace aceso {

struct ClusterSpec {
  GpuSpec gpu;
  int num_nodes = 4;
  int gpus_per_node = 8;

  // Point-to-point bandwidths (bytes/s) and latencies (s).
  double nvlink_bandwidth = 130e9;   // effective unidirectional NVLink
  double nvlink_latency = 3e-6;
  double ib_bandwidth = 12.5e9;      // 100 Gb/s per node
  double ib_latency = 8e-6;

  int num_gpus() const { return num_nodes * gpus_per_node; }

  // Node index of a global device id.
  int NodeOf(int device) const { return device / gpus_per_node; }

  // True when the strided group {first, first+stride, ...} of `size` devices
  // spans more than one node.
  bool GroupCrossesNodes(int first, int size, int stride) const;

  // A convenience single-GPU cluster with the same GPU spec.
  static ClusterSpec SingleGpu();

  // The paper's testbed: 4 nodes x 8 V100(32GB).
  static ClusterSpec PaperCluster();

  // A cluster with `gpus` total devices (filled node by node, 8 per node).
  // CHECK-fails unless CheckGpuCount(gpus) is OK.
  static ClusterSpec WithGpuCount(int gpus);

  // The one statement of which device counts WithGpuCount accepts: 1 to 8
  // GPUs on a single node, or a whole number of 8-GPU nodes. Request and
  // flag parsers return this status instead of letting WithGpuCount abort.
  static Status CheckGpuCount(int gpus);

  // Semantic fingerprint over topology, link parameters, and the GPU spec.
  // Two clusters with equal fingerprints produce identical simulated
  // measurements and identical plan search spaces, so this is the key under
  // which profile-database snapshots are saved/validated (src/profile) and
  // one component of the serving plan-cache key (src/serve).
  uint64_t Fingerprint() const;

  std::string ToString() const;
};

// A communication domain: the set of devices participating in one collective
// or point-to-point transfer, reduced to what the cost model needs.
struct CommDomain {
  int size = 1;               // number of participants
  bool crosses_nodes = false; // any link in the ring is inter-node

  bool operator==(const CommDomain& other) const {
    return size == other.size && crosses_nodes == other.crosses_nodes;
  }
};

}  // namespace aceso

#endif  // SRC_HW_CLUSTER_H_
