// Per-flow rows built on a flow's first event.
//
// The metrics tables hold one slot per configured flow and a dense vector
// of rows for the flows that carried traffic.  A slot is 4 bytes: 0 means
// "no row", k means rows()[k - 1].  Construction zeroes the slots and
// nothing else, so a table's construction, walks and destruction cost
// O(rows) plus one flat array, not O(flows) heap blocks.
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

namespace wormsched::metrics {

template <typename Row>
class FlowRows {
 public:
  explicit FlowRows(std::size_t num_flows) : slots_(num_flows, 0) {
    WS_CHECK(num_flows <= std::numeric_limits<std::uint32_t>::max());
  }

  [[nodiscard]] std::size_t num_flows() const { return slots_.size(); }

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

  /// Drops every row (a restore starts from an empty table).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    rows_.clear();
  }

 private:
  std::vector<std::uint32_t> slots_;
  std::vector<Row> rows_;
};

}  // namespace wormsched::metrics
