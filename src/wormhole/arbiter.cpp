#include "wormhole/arbiter.hpp"

#include <string>

#include "common/assert.hpp"
#include "common/snapshot.hpp"

namespace wormsched::wormhole {

void PortArbiter::request(FlowId requester) {
  ++pending_[requester.index()];
  ++pending_total_;
  on_new_request(requester);
}

std::optional<FlowId> PortArbiter::grant(Cycle now) {
  WS_CHECK_MSG(!bound(), "grant while output still owned");
  const std::optional<FlowId> chosen = pick(now);
  if (!chosen) return std::nullopt;
  auto& pending = pending_[chosen->index()];
  WS_CHECK_MSG(pending > 0, "arbiter granted a requester with no pending head");
  WS_CHECK_MSG(pending_total_ > 0, "pending_total out of sync with pending_");
  --pending;
  --pending_total_;
  owner_ = *chosen;
  return chosen;
}

void PortArbiter::release() {
  WS_CHECK_MSG(bound(), "release with no owner");
  const FlowId owner = owner_;
  owner_ = FlowId::invalid();
  on_release(owner);
}

void PortArbiter::save_state(SnapshotWriter& w,
                             std::uint64_t uncharged_cycles) const {
  w.u64(pending_.size());
  for (const std::uint32_t p : pending_) w.u32(p);
  w.u32(owner_.value());
  w.f64(charging_ == Charging::kCycles
            ? held_ + static_cast<double>(uncharged_cycles)
            : held_);
  save_discipline(w);
}

void PortArbiter::restore_state(SnapshotReader& r) {
  const std::uint64_t n = r.u64();
  if (n != pending_.size())
    throw SnapshotError("arbiter snapshot requester count mismatch");
  pending_total_ = 0;
  for (std::uint32_t& p : pending_) {
    p = r.u32();
    pending_total_ += p;
  }
  owner_ = FlowId{r.u32()};
  held_ = r.f64();
  restore_discipline(r);
}

ErrArbiter::ErrArbiter(std::size_t num_requesters, Accounting accounting,
                       bool reset_on_idle)
    : PortArbiter(num_requesters, accounting == Accounting::kCycles
                                      ? Charging::kCycles
                                      : Charging::kFlits),
      policy_(core::ErrConfig{num_requesters, reset_on_idle}),
      accounting_(accounting) {}

void ErrArbiter::on_new_request(FlowId requester) {
  // A requester with exactly one pending head just went busy — unless the
  // policy is still holding it inside an open service opportunity, in
  // which case the opportunity's continuation rule takes precedence.
  if (pending_[requester.index()] == 1 &&
      !(policy_.in_opportunity() && policy_.current_flow() == requester)) {
    policy_.flow_activated(requester);
  }
}

std::optional<FlowId> ErrArbiter::pick(Cycle) {
  if (policy_.in_opportunity()) {
    // release() only leaves an opportunity open when continuation is
    // legal: allowance remaining and another head pending.
    const FlowId flow = policy_.current_flow();
    WS_CHECK(policy_.may_continue() && pending_[flow.index()] > 0);
    return flow;
  }
  if (!policy_.has_active_flows()) return std::nullopt;
  return policy_.begin_opportunity();
}

void ErrArbiter::on_release(FlowId owner) {
  WS_CHECK(policy_.in_opportunity() && policy_.current_flow() == owner);
  WS_CHECK_MSG(held_ > 0.0, "released a packet that was never charged");
  policy_.charge(held_);
  held_ = 0.0;
  const bool more = pending_[owner.index()] > 0;
  if (!more || !policy_.may_continue())
    policy_.end_opportunity(/*still_backlogged=*/more);
}

void ErrArbiter::save_discipline(SnapshotWriter& w) const { policy_.save(w); }

void ErrArbiter::restore_discipline(SnapshotReader& r) { policy_.restore(r); }

RrArbiter::RrArbiter(std::size_t num_requesters)
    : PortArbiter(num_requesters), ring_(num_requesters) {}

void RrArbiter::on_new_request(FlowId requester) {
  if (pending_[requester.index()] == 1 && requester != owner() &&
      !ring_.contains(requester)) {
    ring_.activate(requester);
  }
}

std::optional<FlowId> RrArbiter::pick(Cycle) {
  if (ring_.empty()) return std::nullopt;
  return ring_.take_next();
}

void RrArbiter::on_release(FlowId owner) {
  if (pending_[owner.index()] > 0) ring_.activate(owner);
}

void RrArbiter::save_discipline(SnapshotWriter& w) const { ring_.save(w); }

void RrArbiter::restore_discipline(SnapshotReader& r) { ring_.restore(r); }

FcfsArbiter::FcfsArbiter(std::size_t num_requesters)
    : PortArbiter(num_requesters) {}

void FcfsArbiter::on_new_request(FlowId requester) {
  order_.push_back(requester);
}

std::optional<FlowId> FcfsArbiter::pick(Cycle) {
  if (order_.empty()) return std::nullopt;
  return order_.pop_front();
}

void FcfsArbiter::on_release(FlowId) {}

void FcfsArbiter::save_discipline(SnapshotWriter& w) const {
  save_sequence(w, order_,
                [](SnapshotWriter& o, FlowId f) { o.u32(f.value()); });
}

void FcfsArbiter::restore_discipline(SnapshotReader& r) {
  restore_sequence(r, order_,
                   [](SnapshotReader& i) { return FlowId{i.u32()}; });
}

std::unique_ptr<PortArbiter> make_arbiter(std::string_view name,
                                          std::size_t num_requesters) {
  const std::string lower(name);
  if (lower == "err" || lower == "err-cycles")
    return std::make_unique<ErrArbiter>(num_requesters,
                                        ErrArbiter::Accounting::kCycles);
  if (lower == "err-flits")
    return std::make_unique<ErrArbiter>(num_requesters,
                                        ErrArbiter::Accounting::kFlits);
  if (lower == "rr") return std::make_unique<RrArbiter>(num_requesters);
  if (lower == "fcfs") return std::make_unique<FcfsArbiter>(num_requesters);
  return nullptr;
}

}  // namespace wormsched::wormhole
