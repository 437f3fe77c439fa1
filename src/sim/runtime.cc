#include "sim/runtime.h"

#include "util/check.h"

namespace dwrs::sim {

Runtime::Runtime(int num_sites, int delivery_delay, uint64_t jitter_seed)
    : network_(num_sites, delivery_delay, jitter_seed),
      sites_(static_cast<size_t>(num_sites), nullptr) {}

void Runtime::AttachSite(int site, SiteNode* node) {
  DWRS_CHECK(site >= 0 && site < num_sites());
  DWRS_CHECK(node != nullptr);
  sites_[static_cast<size_t>(site)] = node;
}

void Runtime::AttachCoordinator(CoordinatorNode* node) {
  DWRS_CHECK(node != nullptr);
  coordinator_ = node;
}

void Runtime::AttachTicker(SiteNode* node) {
  DWRS_CHECK(node != nullptr);
  tickers_.push_back(node);
}

void Runtime::Pump(bool force) {
  Network::Delivery d;
  uint64_t guard = 0;
  while (network_.PopDue(&d, force)) {
    if (d.to_coordinator) {
      DWRS_CHECK(coordinator_ != nullptr);
      coordinator_->OnMessage(d.site, d.msg);
    } else {
      SiteNode* site = sites_[static_cast<size_t>(d.site)];
      DWRS_CHECK(site != nullptr);
      site->OnMessage(d.msg);
    }
    // A protocol that replies to every delivery forever would livelock the
    // simulation; no protocol here exchanges more than O(k) messages per
    // item outside of bulk level-set saturation.
    DWRS_CHECK_LT(++guard, 100'000'000ull) << " message livelock";
  }
}

void Runtime::Deliver(const WorkloadEvent& event) {
  DWRS_CHECK(event.site >= 0 && event.site < num_sites());
  network_.AdvanceStep();
  for (SiteNode* ticker : tickers_) ticker->OnRound(network_.step());
  Pump(/*force=*/false);
  SiteNode* site = sites_[static_cast<size_t>(event.site)];
  DWRS_CHECK(site != nullptr);
  // Route through the span API (n = 1: the paper's one-item-per-step
  // model) so both backends exercise the same endpoint code path.
  site->OnItems(&event.item, 1);
  Pump(/*force=*/false);
}

void Runtime::Flush() { Pump(/*force=*/true); }

void Runtime::Run(const Workload& workload,
                  const std::function<void(uint64_t)>& on_step) {
  DWRS_CHECK_EQ(workload.num_sites(), num_sites());
  DeliverEach(*this, workload, on_step);
}

}  // namespace dwrs::sim
