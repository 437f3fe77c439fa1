// Sharded topology over any executor: S independent backends, one per
// shard coordinator, over one ShardTopology, plus the root merge stage
// that combines the shard coordinators' mergeable summaries into the
// exact global sample. sim::ShardedRuntime and engine::ShardedEngine are
// its two instances and add only what their backend needs.
//
// Endpoints are constructed per shard with LOCAL site indices against
// shard_transport(shard) and attached under their GLOBAL indices; each
// shard runs an unmodified paper-protocol (site, coordinator) pair over
// its block of sites. Shards exchange nothing during the stream — only
// their compact summaries meet, at query time, in MergedSample().

#ifndef DWRS_SIM_SHARDED_H_
#define DWRS_SIM_SHARDED_H_

#include <memory>
#include <vector>

#include "sampling/mergeable_sample.h"
#include "sim/node.h"
#include "stream/sharding.h"
#include "stream/workload.h"
#include "util/check.h"

namespace dwrs::sim {

template <typename Backend>
class Sharded {
 public:
  const ShardTopology& topology() const { return topology_; }
  int num_sites() const { return topology_.num_sites(); }
  int num_shards() const { return topology_.num_shards(); }

  // The transport the endpoints of shard `shard` are constructed against
  // (with local site indices).
  Transport& shard_transport(int shard) {
    return shards_[Index(shard)]->transport();
  }

  // Non-owning, global site index; the node must have been built against
  // shard_transport(topology().ShardOf(site)) with local index
  // topology().LocalOf(site).
  void AttachSite(int site, SiteNode* node) {
    shards_[Index(topology_.ShardOf(site))]->AttachSite(
        topology_.LocalOf(site), node);
  }
  void AttachShardCoordinator(int shard, CoordinatorNode* node) {
    DWRS_CHECK(node != nullptr);
    shards_[Index(shard)]->AttachCoordinator(node);
    coordinators_[Index(shard)] = node;
  }

  // Routes one global event to its shard's Deliver. Only the owning shard
  // has work in flight, so quiescing it alone quiesces the topology.
  void Deliver(const WorkloadEvent& event) {
    shards_[Index(topology_.ShardOf(event.site))]->Deliver(
        WorkloadEvent{topology_.LocalOf(event.site), event.item});
  }

  // Delivers everything in flight in every shard.
  void Flush() {
    for (auto& shard : shards_) shard->Flush();
  }

  // Root merge stage: the shard coordinators' summaries combined into the
  // exact global sample (sampling/mergeable_sample.h). Quiesce points
  // only.
  MergeableSample MergedSample() const {
    return MergeShardCoordinators(coordinators_);
  }

 protected:
  Sharded(int num_sites, int num_shards)
      : topology_(num_sites, num_shards),
        coordinators_(static_cast<size_t>(num_shards), nullptr) {}

  size_t Index(int shard) const {
    DWRS_CHECK(shard >= 0 && shard < topology_.num_shards());
    return static_cast<size_t>(shard);
  }

  ShardTopology topology_;
  std::vector<std::unique_ptr<Backend>> shards_;  // built by the subclass

 private:
  std::vector<const CoordinatorNode*> coordinators_;
};

}  // namespace dwrs::sim

#endif  // DWRS_SIM_SHARDED_H_
