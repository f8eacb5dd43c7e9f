#include "wormhole/arbiter.hpp"

#include <string>

#include "common/assert.hpp"
#include "common/archive.hpp"

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

void PortArbiter::fields(Archive& a, std::uint64_t uncharged_cycles) {
  a.table("pending", pending_, [&a](std::uint32_t& p) { a.u32("", p); });
  a.id("owner", owner_);
  double held = charging_ == Charging::kCycles
                    ? held_ + static_cast<double>(uncharged_cycles)
                    : held_;
  a.f64("held", held, non_negative());
  if (a.loading()) {
    held_ = held;
    pending_total_ = 0;
    for (const std::uint32_t p : pending_) pending_total_ += p;
  }
  discipline_fields(a);
}

ErrArbiter::ErrArbiter(std::size_t num_requesters, Charging charging,
                       bool reset_on_idle)
    : PortArbiter(num_requesters, charging),
      policy_(core::ErrConfig{num_requesters, reset_on_idle}) {
  WS_CHECK_MSG(charging != Charging::kNone, "ERR arbiter charges no cost");
}

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

void ErrArbiter::discipline_fields(Archive& a) {
  policy_.fields(a);
  if (!a.loading()) return;
  // The owner is the flow in service; an opportunity left open between
  // packets must be one release() could leave open (see pick()).
  const bool serving = policy_.in_opportunity();
  if (bound() ? !serving || owner_ != policy_.current_flow()
              : serving && (pending_[policy_.current_flow().index()] == 0 ||
                            !policy_.may_continue()))
    throw SnapshotError(
        "ERR arbiter snapshot's service opportunity disagrees with its "
        "owner and pending heads");
}

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

void RrArbiter::discipline_fields(Archive& a) { ring_.fields(a); }

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

void FcfsArbiter::discipline_fields(Archive& a) {
  a.seq("order", order_, [&a](FlowId& flow) { a.id("", flow); });
}

std::unique_ptr<PortArbiter> make_arbiter(std::string_view name,
                                          std::size_t num_requesters) {
  const std::string lower(name);
  if (lower == "err" || lower == "err-cycles")
    return std::make_unique<ErrArbiter>(num_requesters,
                                        PortArbiter::Charging::kCycles);
  if (lower == "err-flits")
    return std::make_unique<ErrArbiter>(num_requesters,
                                        PortArbiter::Charging::kFlits);
  if (lower == "rr") return std::make_unique<RrArbiter>(num_requesters);
  if (lower == "fcfs") return std::make_unique<FcfsArbiter>(num_requesters);
  return nullptr;
}

}  // namespace wormsched::wormhole
