// Name-based scheduler factory used by the harness, benches and examples
// (`--scheduler err` on the command line).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "core/scheduler.hpp"

namespace wormsched::core {

struct SchedulerParams {
  std::size_t num_flows = 1;
  /// DRR/SRR base quantum in flits; set to the scenario's maximum
  /// possible packet size for the O(1) guarantee (the DRR paper's
  /// requirement).
  Flits drr_quantum = 64;
  /// ERR/PERR idle-reset variant (DESIGN.md design decision 4).
  bool err_reset_on_idle = false;
  /// PERR: flow -> priority class (0 = highest); empty = all class 0.
  std::vector<std::uint32_t> perr_priorities;
};

/// Creates a scheduler by (case-insensitive) name: "err", "drr", "srr",
/// "perr", "pbrr", "fbrr", "fcfs", "scfq", "vc", "wfq", "wf2q+".
/// Returns nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    std::string_view name, const SchedulerParams& params);

/// Why discipline `name` cannot take `weights` (flow i's is weights[i]),
/// naming the first flow whose weight it refuses; nullopt when it takes
/// them all.  Every discipline takes finite weights > 0, and ERR and PERR
/// need every weight >= 1, which keeps each allowance positive.
/// set_weight() aborts on a weight refused here, so weights read from
/// outside (a workload, a checkpoint) are checked here first.
[[nodiscard]] std::optional<std::string> weight_error(
    std::string_view name, const std::vector<double>& weights);

/// All names make_scheduler accepts, in canonical (paper) spelling.
[[nodiscard]] const std::vector<std::string_view>& scheduler_names();

}  // namespace wormsched::core
