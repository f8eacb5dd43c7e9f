// Per-flow rows built on a flow's first event.
//
// A table holds one slot per configured flow and a dense vector of rows
// for the flows that carried traffic.  A slot is 4 bytes: 0 means "no
// row", k means rows()[k - 1].  Construction zeroes the slots and nothing
// else, so a table's construction, walks and destruction cost O(rows)
// plus one flat array, not O(flows) heap blocks.
//
// The metrics tables (metrics/) let the row vector grow.  The scheduler
// core (core/) calls reserve_all(): the row vector then has capacity for
// every configured flow, so a row never moves once built and building
// one never allocates — the hot path's zero-allocation contract.  The
// reserved capacity is address space the kernel backs only where a row
// is written, so it costs neither RSS nor construction time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace wormsched {

template <typename Row>
class FlowRows {
 public:
  explicit FlowRows(std::size_t num_flows) : slots_(num_flows, 0) {
    WS_CHECK(num_flows <= std::numeric_limits<std::uint32_t>::max());
  }

  [[nodiscard]] std::size_t num_flows() const { return slots_.size(); }

  /// Reserves a row for every configured flow: from here on rows never
  /// move and row() never allocates.
  void reserve_all() { rows_.reserve(slots_.size()); }

  /// `flow`'s row, or nullptr before its first event.
  [[nodiscard]] const Row* find(FlowId flow) const {
    const std::uint32_t slot = slots_[flow.index()];
    return slot == 0 ? nullptr : &rows_[slot - 1];
  }
  [[nodiscard]] Row* find(FlowId flow) {
    const std::uint32_t slot = slots_[flow.index()];
    return slot == 0 ? nullptr : &rows_[slot - 1];
  }

  /// `flow`'s row; its first call builds the row from `init`.
  template <typename... Init>
  Row& row(FlowId flow, Init&&... init) {
    std::uint32_t& slot = slots_[flow.index()];
    if (slot == 0) {
      rows_.push_back(Row{std::forward<Init>(init)...});
      slot = static_cast<std::uint32_t>(rows_.size());
    }
    return rows_[slot - 1];
  }

  /// The rows in first-event order.
  [[nodiscard]] std::span<Row> rows() { return rows_; }
  [[nodiscard]] std::span<const Row> rows() const { return rows_; }

  /// Drops every row (a restore starts from an empty table).  Keeps the
  /// row capacity, so a reserved table stays reserved.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    rows_.clear();
  }

 private:
  std::vector<std::uint32_t> slots_;
  std::vector<Row> rows_;
};

}  // namespace wormsched
