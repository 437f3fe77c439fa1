// The execution seam: the one contract a protocol stack needs from the
// backend that runs it — attach endpoints, deliver an event, quiesce.
// sim::Runtime (the deterministic reference) and engine::Engine (the
// pipelined engine) implement it. Because the paper's protocols depend
// only on message delivery order, replaying a workload with one Deliver
// per event runs the same endpoint callbacks in the same order on both.
// Pipelined ingestion (Engine::Push, Run, RunPaced) stays on the
// concrete engine type.

#ifndef DWRS_SIM_EXECUTOR_H_
#define DWRS_SIM_EXECUTOR_H_

#include <cstdint>
#include <functional>

#include "sim/message.h"
#include "sim/node.h"
#include "stream/workload.h"

namespace dwrs::sim {

class Executor {
 public:
  virtual ~Executor() = default;

  // The transport endpoints are constructed against.
  virtual Transport& transport() = 0;

  // Non-owning; endpoints must outlive the executor's use (see the
  // teardown contract in engine/engine.h).
  virtual void AttachSite(int site, SiteNode* node) = 0;
  virtual void AttachCoordinator(CoordinatorNode* node) = 0;

  // Hands one stream event to its site and returns once the exchange it
  // caused is delivered (on the simulator: what is due, which with zero
  // delay is all of it). Querying endpoints is legal on return.
  virtual void Deliver(const WorkloadEvent& event) = 0;

  // Delivers everything in flight and returns quiescent.
  virtual void Flush() = 0;

  // Traffic so far; equal transcripts give equal snapshots.
  virtual MessageStats MessageSnapshot() const = 0;

  // Stops backend threads so endpoints may be destroyed (idempotent).
  virtual void Shutdown() = 0;
};

// Step-synchronous replay: Deliver per event, then `on_step` (if set)
// with the 1-based prefix length. Any backend with a Deliver(event),
// sharded ones included.
template <typename Backend>
void DeliverEach(Backend& backend, const Workload& workload,
                 const std::function<void(uint64_t)>& on_step = nullptr) {
  for (uint64_t i = 0; i < workload.size(); ++i) {
    backend.Deliver(workload.event(i));
    if (on_step) on_step(i + 1);
  }
}

}  // namespace dwrs::sim

#endif  // DWRS_SIM_EXECUTOR_H_
