#include "core/scheduler.hpp"

#include <limits>

#include "common/archive.hpp"
#include "common/assert.hpp"

namespace wormsched::core {

namespace {

// Section tags inside a scheduler snapshot.
constexpr std::uint32_t kSchedBaseTag = 0x53424153;   // "SABS"
constexpr std::uint32_t kSchedDiscTag = 0x53444953;   // "SIDS"

FlowId flow_at(std::size_t f) {
  return FlowId(static_cast<FlowId::rep_type>(f));
}

}  // namespace

void Scheduler::fields(Archive& a) {
  const std::size_t n = num_flows();
  a.section(kSchedBaseTag, "base", [&] {
    if (a.loading()) {
      for (FrameRow& row : rows_.rows()) queues_.clear(row.queue);
      rows_.clear();
    }
    const auto row_of = [this](std::size_t f) {
      return rows_.find(flow_at(f));
    };
    a.flow_table(
        "queues", n, QueueRow{},
        [&](std::size_t f) -> const QueueRow* {
          const FrameRow* row = row_of(f);
          return row == nullptr ? nullptr : &row->queue;
        },
        [this](std::size_t f, QueueRow&& q) {
          rows_.row(flow_at(f)).queue = q;
        },
        [this](Archive& ar, QueueRow& q, std::size_t f) {
          queues_.fields(ar, q, flow_at(f));
        });
    a.flow_table(
        "weights", n, 1.0,
        [&](std::size_t f) -> const double* {
          const FrameRow* row = row_of(f);
          return row == nullptr ? nullptr : &row->weight;
        },
        [this](std::size_t f, double&& w) {
          rows_.row(flow_at(f)).weight = w;
        },
        [](Archive& ar, double& w, std::size_t) {
          ar.f64("", w, positive());
        });
    a.flow_table(
        "progress", n, Flits{0},
        [&](std::size_t f) -> const Flits* {
          const FrameRow* row = row_of(f);
          return row == nullptr ? nullptr : &row->progress;
        },
        [this](std::size_t f, Flits&& p) {
          rows_.row(flow_at(f)).progress = p;
        },
        [](Archive& ar, Flits& p, std::size_t) { ar.i64("", p); });
    bool latched = latched_flow_.has_value();
    std::uint32_t latched_value = latched ? latched_flow_->value() : 0;
    a.b("latched", latched);
    a.u32("latched_flow", latched_value);
    a.i64("backlog", backlog_flits_);
    if (!a.loading()) return;
    latched_flow_ =
        latched ? std::optional<FlowId>(FlowId(latched_value)) : std::nullopt;
    check_restored();
  });
  a.section(kSchedDiscTag, "discipline", [&] { discipline_fields(a); });
}

void Scheduler::check_restored() const {
  const std::size_t n = num_flows();
  Flits queued = 0;
  Flits progress_total = 0;
  for (std::size_t f = 0; f < n; ++f) {
    const FrameRow* row = rows_.find(flow_at(f));
    if (row == nullptr) continue;
    queues_.for_each_length(row->queue, [&queued](Flits length) {
      if (length > std::numeric_limits<Flits>::max() - queued)
        throw SnapshotError("scheduler snapshot queues too many flits");
      queued += length;
    });
    if (row->progress == 0) continue;
    if (row->queue.len == 0 || row->progress < 0 ||
        row->progress >= queues_.head_length(row->queue))
      throw SnapshotError("scheduler snapshot has flow " + std::to_string(f) +
                          " past the end of its head packet");
    progress_total += row->progress;
  }
  if (latched_flow_ && (latched_flow_->index() >= n ||
                        !flow_backlogged(*latched_flow_)))
    throw SnapshotError("scheduler snapshot latches flow " +
                        std::to_string(latched_flow_->value()) +
                        ", which has no packet queued");
  if (backlog_flits_ != queued - progress_total)
    throw SnapshotError("scheduler snapshot backlog of " +
                        std::to_string(backlog_flits_) +
                        " flits disagrees with its queues");
}

Scheduler::Scheduler(std::size_t num_flows) : rows_(num_flows) {
  WS_CHECK_MSG(num_flows > 0, "scheduler needs at least one flow");
  rows_.reserve_all();
}

void Scheduler::set_weight(FlowId flow, double w) {
  WS_CHECK_MSG(w > 0.0, "flow weight must be positive");
  rows_.row(flow).weight = w;
}

void Scheduler::enqueue(Cycle now, Packet packet) {
  WS_CHECK(packet.flow.index() < num_flows());
  WS_CHECK_MSG(packet.length > 0, "zero-length packet");
  FrameRow& row = rows_.row(packet.flow);
  const bool was_idle = row.queue.len == 0;
  packet.arrival = now;
  backlog_flits_ += packet.length;
  if (observer_ != nullptr) observer_->on_packet_arrival(now, packet);
  queues_.push_back(row.queue, packet);
  if (was_idle) on_flow_backlogged(packet.flow);
  on_packet_enqueued(now, packet.flow,
                     requires_apriori_length() ? packet.length : Flits{-1});
}

std::size_t Scheduler::queue_length(FlowId flow) const {
  const FrameRow* row = rows_.find(flow);
  return row == nullptr ? 0 : row->queue.len;
}

Flits Scheduler::head_packet_length(FlowId flow) const {
  WS_CHECK_MSG(requires_apriori_length(),
               "length oracle used by a discipline that did not declare "
               "requires_apriori_length()");
  return queues_.head_length(queued_row(flow).queue);
}

std::optional<FlitEvent> Scheduler::pull_flit(Cycle now) {
  if (backlog_flits_ == 0) return std::nullopt;
  return pull_flit_impl(now);
}

std::optional<FlitEvent> Scheduler::pull_flit_impl(Cycle now) {
  if (!latched_flow_) latched_flow_ = select_next_flow(now);
  const FlowId flow = *latched_flow_;
  const EmitResult r = emit_flit_from(now, flow);
  if (r.packet_completed) {
    latched_flow_.reset();
    on_packet_complete(flow, r.observed_length, r.queue_now_empty);
  }
  return r.flit;
}

Scheduler::EmitResult Scheduler::emit_flit_from(Cycle now, FlowId flow) {
  FrameRow& row = queued_row(flow);
  QueueRow& queue = row.queue;
  const Flits head_length = queues_.head_length(queue);
  const Flits index = row.progress;
  WS_CHECK(index < head_length);

  if (index == 0) queues_.set_head_first_service(queue, now);

  // Field by field: built as one aggregate, GCC assembled the flit on the
  // stack and copied it with wide loads that stall on the byte stores
  // just made, which doubled the per-flit cost.
  EmitResult result;
  result.flit.flow = flow;
  result.flit.packet = queues_.head_id(queue);
  result.flit.index = index;
  result.flit.is_head = index == 0;
  result.flit.is_tail = index + 1 == head_length;
  row.progress = index + 1;
  WS_CHECK(backlog_flits_ > 0);
  --backlog_flits_;
  if (observer_ != nullptr) observer_->on_flit(now, result.flit);

  if (result.flit.is_tail) {
    queues_.set_head_departure(queue, now);
    result.packet_completed = true;
    result.observed_length = head_length;
    const Packet completed = queues_.pop_front(queue, flow);
    row.progress = 0;
    result.queue_now_empty = queue.len == 0;
    if (observer_ != nullptr) observer_->on_packet_departure(now, completed);
  }
  return result;
}

}  // namespace wormsched::core
