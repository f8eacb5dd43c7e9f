#include "core/registry.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>

#include "core/drr.hpp"
#include "core/err.hpp"
#include "core/fcfs.hpp"
#include "core/perr.hpp"
#include "core/round_robin.hpp"
#include "core/srr.hpp"
#include "core/timestamp.hpp"
#include "core/wf2q.hpp"
#include "core/wfq.hpp"
#include "core/wrr.hpp"

namespace wormsched::core {

std::unique_ptr<Scheduler> make_scheduler(std::string_view name,
                                          const SchedulerParams& params) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "err")
    return std::make_unique<ErrScheduler>(
        ErrConfig{params.num_flows, params.err_reset_on_idle});
  if (lower == "drr")
    return std::make_unique<DrrScheduler>(
        DrrConfig{params.num_flows, params.drr_quantum});
  if (lower == "srr")
    return std::make_unique<SrrScheduler>(
        SrrConfig{params.num_flows, params.drr_quantum});
  if (lower == "perr")
    return std::make_unique<PerrScheduler>(PerrConfig{
        params.num_flows, params.perr_priorities, params.err_reset_on_idle});
  if (lower == "pbrr") return std::make_unique<PbrrScheduler>(params.num_flows);
  if (lower == "wrr") return std::make_unique<WrrScheduler>(params.num_flows);
  if (lower == "fbrr") return std::make_unique<FbrrScheduler>(params.num_flows);
  if (lower == "fcfs") return std::make_unique<FcfsScheduler>(params.num_flows);
  if (lower == "scfq") return std::make_unique<ScfqScheduler>(params.num_flows);
  if (lower == "stfq") return std::make_unique<StfqScheduler>(params.num_flows);
  if (lower == "vc" || lower == "vclock")
    return std::make_unique<VirtualClockScheduler>(params.num_flows);
  if (lower == "wfq") return std::make_unique<WfqScheduler>(params.num_flows);
  if (lower == "wf2q+" || lower == "wf2q")
    return std::make_unique<Wf2qPlusScheduler>(params.num_flows);
  return nullptr;
}

std::optional<std::string> weight_error(std::string_view name,
                                        const std::vector<double>& weights) {
  std::string lower(name);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const char* floor_of = lower == "err"    ? "ERR"
                         : lower == "perr" ? "PERR"
                                           : nullptr;
  for (std::size_t f = 0; f < weights.size(); ++f) {
    const double w = weights[f];
    const bool positive = std::isfinite(w) && w > 0.0;
    if (positive && (floor_of == nullptr || w >= 1.0)) continue;
    char text[64];
    std::snprintf(text, sizeof text, "flow %zu's weight %.15g is ", f, w);
    return text + (positive ? "below 1, the least " + std::string(floor_of) +
                                  " takes"
                            : std::string("not a finite number > 0"));
  }
  return std::nullopt;
}

const std::vector<std::string_view>& scheduler_names() {
  static const std::vector<std::string_view> names = {
      "ERR",  "DRR",  "SRR",  "PERR", "PBRR", "WRR",  "FBRR",
      "FCFS", "SCFQ", "STFQ", "VC",   "WFQ",  "WF2Q+"};
  return names;
}

}  // namespace wormsched::core
