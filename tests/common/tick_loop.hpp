// A plain tick loop for fabric tests.  A fabric run is its parts (a
// traffic source, then the network) ticked in order once per cycle; the
// loop stops at a cycle, or once every part is idle.
#pragma once

#include <tuple>

#include "common/types.hpp"

namespace wormsched::test {

/// Ticks `parts` in the order given, once per cycle, from cycle 0.  Each
/// part has `void tick(Cycle)` and `bool idle() const`.
template <class... Parts>
class TickLoop {
 public:
  explicit TickLoop(Parts&... parts) : parts_(parts...) {}

  /// The next cycle to tick.
  [[nodiscard]] Cycle now() const { return now_; }

  /// Ticks cycles [now, end).
  void run_until(Cycle end) {
    while (now_ < end) step();
  }

  /// Ticks until every part is idle or the clock reaches `cap`; returns
  /// the cycle it stopped at.
  Cycle run_until_idle(Cycle cap) {
    while (now_ < cap && !idle()) step();
    return now_;
  }

 private:
  void step() {
    std::apply([this](Parts&... p) { (p.tick(now_), ...); }, parts_);
    ++now_;
  }
  [[nodiscard]] bool idle() const {
    return std::apply([](const Parts&... p) { return (p.idle() && ...); },
                      parts_);
  }

  std::tuple<Parts&...> parts_;
  Cycle now_ = 0;
};

}  // namespace wormsched::test
