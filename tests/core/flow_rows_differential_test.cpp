// The scheduler core's per-flow rows against the dense layout they
// replaced.
//
// The Scheduler frame and FlowStatePool keep a row only for a flow that
// was enqueued to or given a weight (common/flow_rows.hpp).  DenseModel
// below keeps every per-flow field in a flat per-flow array, as the core
// did before, and re-implements the row-backed disciplines on it: ERR,
// PERR, DRR, SRR, PBRR, FBRR and SCFQ.  It is the specification: over one
// random trace per seed on 1k-5k flows, most of them idle, each
// discipline must serve the same flits, answer every accessor alike and
// save the same bytes — also after a save/restore at random split points,
// whose restored instance must save those bytes again.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "core/drr.hpp"
#include "core/err.hpp"
#include "core/registry.hpp"
#include "core/scheduler.hpp"
#include "core/srr.hpp"

namespace wormsched::core {
namespace {

constexpr std::uint64_t kSeeds = 40;
constexpr Cycle kCycles = 2'000;
constexpr Flits kQuantum = 8;  // the longest packet, for DRR and SRR
constexpr std::uint32_t kClasses = 4;
constexpr std::uint32_t kNone = FlowId::invalid().value();

// Section tags of a scheduler snapshot (core/scheduler.cpp).
constexpr std::uint32_t kSchedBaseTag = 0x53424153;
constexpr std::uint32_t kSchedDiscTag = 0x53444953;

enum class Kind { kErr, kPerr, kDrr, kSrr, kPbrr, kFbrr, kScfq };

struct Discipline {
  const char* name;
  Kind kind;
};

constexpr Discipline kDisciplines[] = {
    {"err", Kind::kErr},   {"perr", Kind::kPerr}, {"drr", Kind::kDrr},
    {"srr", Kind::kSrr},   {"pbrr", Kind::kPbrr}, {"fbrr", Kind::kFbrr},
    {"scfq", Kind::kScfq},
};

/// Reference ERR policy state: two doubles per configured flow and the
/// ActiveList as a deque in activation order.
struct DenseErr {
  explicit DenseErr(std::size_t n) : sc(n, 0.0), weight(n, 1.0) {}

  void activate(std::uint32_t f) {
    sc[f] = 0.0;
    fifo.push_back(f);
    ++active_count;
  }
  std::uint32_t begin() {
    if (visits == 0) {
      previous_max_sc = max_sc;
      visits = active_count;
      max_sc = 0.0;
      ++round;
    }
    current = fifo.front();
    fifo.pop_front();
    in_opportunity = true;
    allowance = weight[current] * (1.0 + previous_max_sc) - sc[current];
    sent = 0.0;
    max_charge = 0.0;
    return current;
  }
  void charge(double units) {
    sent += units;
    max_charge = std::max(max_charge, units);
  }
  void end(bool backlogged) {
    const double s = sent - allowance;
    sc[current] = s;
    max_sc = std::max(max_sc, s);
    if (backlogged) {
      fifo.push_back(current);
    } else {
      sc[current] = 0.0;
      --active_count;
    }
    --visits;
    in_opportunity = false;
  }
  void save(SnapshotWriter& w) const {
    w.u64(sc.size());
    for (std::size_t f = 0; f < sc.size(); ++f) {
      w.f64(sc[f]);
      w.f64(weight[f]);
    }
    w.u64(fifo.size());
    for (const std::uint32_t f : fifo) w.u32(f);
    w.u64(active_count);
    w.u64(visits);
    w.f64(max_sc);
    w.f64(previous_max_sc);
    w.u64(round);
    w.b(false);  // reset_on_idle
    w.b(in_opportunity);
    w.u32(current);
    w.f64(allowance);
    w.f64(sent);
    w.f64(max_charge);
  }

  std::vector<double> sc;
  std::vector<double> weight;
  std::deque<std::uint32_t> fifo;
  std::uint64_t active_count = 0;
  std::uint64_t visits = 0;
  double max_sc = 0.0;
  double previous_max_sc = 0.0;
  std::uint64_t round = 0;
  bool in_opportunity = false;
  std::uint32_t current = kNone;
  double allowance = 0.0;
  double sent = 0.0;
  double max_charge = 0.0;
};

struct DensePacket {
  PacketId::rep_type id;
  Flits length;
  Cycle arrival;
  Cycle first_service = kCycleMax;
  Cycle departure = kCycleMax;
  double stamp = 0.0;
};

struct Flit {
  FlowId::rep_type flow;
  PacketId::rep_type packet;
  Flits index;
  bool is_head;
  bool is_tail;
  bool operator==(const Flit&) const = default;
};

/// Reference scheduler: the frame's queues, weights and head progress as
/// one entry per configured flow, plus the discipline's state.
class DenseModel {
 public:
  DenseModel(Kind kind, std::size_t n, std::vector<std::uint32_t> priority)
      : kind_(kind),
        queues_(n),
        weight_(n, 1.0),
        progress_(n, 0),
        priority_(std::move(priority)),
        pool_sc_(n, 0.0),
        pool_weight_(n, static_cast<double>(kQuantum)),
        in_heap_(n, false),
        last_finish_(n, 0.0) {
    const std::size_t policies =
        kind == Kind::kPerr
            ? *std::max_element(priority_.begin(), priority_.end()) + 1
            : 1;
    for (std::size_t c = 0; c < policies; ++c) err_.emplace_back(n);
  }

  void set_weight(std::uint32_t f, double w) {
    weight_[f] = w;
    if (kind_ == Kind::kErr || kind_ == Kind::kPerr) err_of(f).weight[f] = w;
    if (kind_ == Kind::kDrr || kind_ == Kind::kSrr)
      pool_weight_[f] = w * static_cast<double>(kQuantum);
  }

  void enqueue(Cycle now, const Packet& p) {
    const std::uint32_t f = p.flow.value();
    const bool was_idle = queues_[f].empty();
    backlog_ += p.length;
    queues_[f].push_back(DensePacket{p.id.value(), p.length, now});
    if (was_idle) on_backlogged(f);
    if (kind_ == Kind::kScfq) {
      const double finish = std::max(virtual_time_, last_finish_[f]) +
                            static_cast<double>(p.length) / weight_[f];
      last_finish_[f] = finish;
      queues_[f].back().stamp = finish;
      if (was_idle) {
        ++backlogged_;
        if (serving_ != f) push_candidate(f);
      }
    }
  }

  std::optional<Flit> pull(Cycle now) {
    if (backlog_ == 0) return std::nullopt;
    if (kind_ == Kind::kFbrr) {
      const std::uint32_t f = fifo_.front();
      fifo_.pop_front();
      bool done = false;
      bool empty = false;
      const Flit flit = emit(now, f, done, empty);
      if (!done || !empty) fifo_.push_back(f);
      return flit;
    }
    if (!latched_) latched_ = select();
    const std::uint32_t f = *latched_;
    bool done = false;
    bool empty = false;
    const Flit flit = emit(now, f, done, empty);
    if (done) {
      latched_.reset();
      complete(f, flit.index + 1, empty);
    }
    return flit;
  }

  [[nodiscard]] std::size_t queue_length(std::uint32_t f) const {
    return queues_[f].size();
  }
  [[nodiscard]] double weight(std::uint32_t f) const { return weight_[f]; }
  /// ERR's SC, DRR's deficit or SRR's credit.
  [[nodiscard]] double surplus(std::uint32_t f) const {
    return kind_ == Kind::kErr ? err_[0].sc[f] : pool_sc_[f];
  }

  [[nodiscard]] std::vector<std::uint8_t> save() const {
    const std::size_t n = queues_.size();
    SnapshotWriter w;
    w.begin_section(kSchedBaseTag);
    w.u64(n);
    for (std::size_t f = 0; f < n; ++f) {
      w.u64(queues_[f].size());
      for (const DensePacket& p : queues_[f]) {
        w.u64(p.id);
        w.u32(static_cast<std::uint32_t>(f));
        w.i64(p.length);
        w.u64(p.arrival);
        w.u64(p.first_service);
        w.u64(p.departure);
      }
    }
    w.u64(n);
    for (const double x : weight_) w.f64(x);
    w.u64(n);
    for (const Flits x : progress_) w.i64(x);
    w.b(latched_.has_value());
    w.u32(latched_.value_or(0));
    w.i64(backlog_);
    w.end_section();
    w.begin_section(kSchedDiscTag);
    save_discipline(w);
    w.end_section();
    return w.bytes();
  }

 private:
  DenseErr& err_of(std::uint32_t f) {
    return err_[kind_ == Kind::kPerr ? priority_[f] : 0];
  }

  void on_backlogged(std::uint32_t f) {
    switch (kind_) {
      case Kind::kErr:
      case Kind::kPerr: {
        DenseErr& e = err_of(f);
        if (!(e.in_opportunity && e.current == f)) e.activate(f);
        break;
      }
      case Kind::kDrr:
      case Kind::kSrr:
        if (!(in_opportunity_ && current_ == f)) {
          pool_sc_[f] = 0.0;
          fifo_.push_back(f);
        }
        break;
      case Kind::kPbrr:
      case Kind::kFbrr:
        fifo_.push_back(f);
        break;
      case Kind::kScfq:
        break;
    }
  }

  std::uint32_t select() {
    switch (kind_) {
      case Kind::kErr:
      case Kind::kPerr:
        for (DenseErr& e : err_) {
          if (e.in_opportunity) return e.current;
          if (e.active_count > 0) return e.begin();
        }
        break;
      case Kind::kDrr:
        for (;;) {
          if (!in_opportunity_) {
            current_ = fifo_.front();
            fifo_.pop_front();
            pool_sc_[current_] += pool_weight_[current_];
            in_opportunity_ = true;
          }
          if (fits(current_)) return current_;
          fifo_.push_back(current_);
          in_opportunity_ = false;
        }
      case Kind::kSrr:
        if (in_opportunity_) return current_;
        for (;;) {
          const std::uint32_t f = fifo_.front();
          fifo_.pop_front();
          pool_sc_[f] += pool_weight_[f];
          if (pool_sc_[f] > 0.0) {
            in_opportunity_ = true;
            current_ = f;
            return f;
          }
          fifo_.push_back(f);
        }
      case Kind::kPbrr:
        serving_ = fifo_.front();
        fifo_.pop_front();
        return serving_;
      case Kind::kFbrr:
        break;
      case Kind::kScfq: {
        const HeapEntry top = heap_.top();
        heap_.pop();
        in_heap_[top.flow] = false;
        serving_ = top.flow;
        virtual_time_ = top.tag;
        return top.flow;
      }
    }
    ADD_FAILURE() << "select with nothing to serve";
    return 0;
  }

  void complete(std::uint32_t f, Flits length, bool empty) {
    switch (kind_) {
      case Kind::kErr:
      case Kind::kPerr: {
        DenseErr& e = err_of(f);
        e.charge(static_cast<double>(length));
        if (empty || !(e.sent < e.allowance)) e.end(!empty);
        break;
      }
      case Kind::kDrr:
        pool_sc_[f] -= static_cast<double>(length);
        if (empty) {
          pool_sc_[f] = 0.0;
          in_opportunity_ = false;
        } else if (!fits(f)) {
          fifo_.push_back(f);
          in_opportunity_ = false;
        }
        break;
      case Kind::kSrr:
        pool_sc_[f] -= static_cast<double>(length);
        if (empty || !(pool_sc_[f] > 0.0)) {
          if (empty) {
            pool_sc_[f] = 0.0;
          } else {
            fifo_.push_back(f);
          }
          in_opportunity_ = false;
        }
        break;
      case Kind::kPbrr:
        if (!empty) fifo_.push_back(f);
        serving_ = kNone;
        break;
      case Kind::kFbrr:
        break;
      case Kind::kScfq:
        serving_ = kNone;
        if (!empty) {
          push_candidate(f);
        } else if (--backlogged_ == 0) {
          virtual_time_ = 0.0;
          std::fill(last_finish_.begin(), last_finish_.end(), 0.0);
        }
        break;
    }
  }

  [[nodiscard]] bool fits(std::uint32_t f) const {
    return static_cast<double>(queues_[f].front().length) <= pool_sc_[f];
  }

  Flit emit(Cycle now, std::uint32_t f, bool& done, bool& empty) {
    DensePacket& head = queues_[f].front();
    Flits& progress = progress_[f];
    if (progress == 0) head.first_service = now;
    const Flit flit{f, head.id, progress, progress == 0,
                    progress + 1 == head.length};
    ++progress;
    --backlog_;
    if (flit.is_tail) {
      queues_[f].pop_front();
      progress = 0;
      done = true;
      empty = queues_[f].empty();
    }
    return flit;
  }

  void push_candidate(std::uint32_t f) {
    heap_.push(HeapEntry{queues_[f].front().stamp, next_sequence_++, f});
    in_heap_[f] = true;
  }

  void save_discipline(SnapshotWriter& w) const {
    const std::size_t n = queues_.size();
    switch (kind_) {
      case Kind::kErr:
        err_[0].save(w);
        break;
      case Kind::kPerr:
        w.u64(n);
        for (const std::uint32_t p : priority_) w.u32(p);
        w.u64(err_.size());
        for (const DenseErr& e : err_) e.save(w);
        break;
      case Kind::kDrr:
      case Kind::kSrr:
        w.u64(n);
        for (std::size_t f = 0; f < n; ++f) {
          w.f64(pool_sc_[f]);
          w.f64(pool_weight_[f]);
        }
        save_fifo(w);
        if (kind_ == Kind::kDrr) {
          w.i64(kQuantum);
        } else {
          w.f64(static_cast<double>(kQuantum));
        }
        w.b(in_opportunity_);
        w.u32(current_);
        break;
      case Kind::kPbrr:
        save_fifo(w);
        w.u32(serving_);
        break;
      case Kind::kFbrr:
        save_fifo(w);
        break;
      case Kind::kScfq: {
        w.u64(n);
        for (const auto& q : queues_) {
          w.u64(q.size());
          for (const DensePacket& p : q) w.f64(p.stamp);
        }
        for (const bool b : in_heap_) w.b(b);
        auto drain = heap_;
        w.u64(drain.size());
        for (; !drain.empty(); drain.pop()) {
          w.f64(drain.top().tag);
          w.u64(drain.top().sequence);
          w.u32(drain.top().flow);
        }
        w.u64(next_sequence_);
        w.u64(backlogged_);
        w.u32(serving_);
        w.f64(virtual_time_);
        w.u64(n);
        for (const double x : last_finish_) w.f64(x);
        break;
      }
    }
  }

  void save_fifo(SnapshotWriter& w) const {
    w.u64(fifo_.size());
    for (const std::uint32_t f : fifo_) w.u32(f);
  }

  struct HeapEntry {
    double tag;
    std::uint64_t sequence;
    std::uint32_t flow;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.tag != b.tag) return a.tag > b.tag;
      return a.sequence > b.sequence;
    }
  };

  Kind kind_;
  // The frame.
  std::vector<std::deque<DensePacket>> queues_;
  std::vector<double> weight_;
  std::vector<Flits> progress_;
  std::optional<std::uint32_t> latched_;
  Flits backlog_ = 0;
  // ERR, or one ERR per PERR class.
  std::vector<std::uint32_t> priority_;
  std::vector<DenseErr> err_;
  // DRR and SRR pool columns; the round-robin FIFO of DRR, SRR, PBRR and
  // FBRR; and their in-service flow.
  std::vector<double> pool_sc_;
  std::vector<double> pool_weight_;
  std::deque<std::uint32_t> fifo_;
  bool in_opportunity_ = false;
  std::uint32_t current_ = kNone;
  std::uint32_t serving_ = kNone;  // PBRR and SCFQ
  // SCFQ.
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> heap_;
  std::vector<bool> in_heap_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t backlogged_ = 0;
  double virtual_time_ = 0.0;
  std::vector<double> last_finish_;
};

std::vector<std::uint8_t> saved(const Scheduler& s) {
  SnapshotWriter w;
  save_fields(w, s);
  return w.bytes();
}

/// Equal saves, or where the first difference is.
::testing::AssertionResult same_bytes(const std::vector<std::uint8_t>& got,
                                      const std::vector<std::uint8_t>& want) {
  if (got == want) return ::testing::AssertionSuccess();
  const auto diff = std::mismatch(got.begin(), got.end(), want.begin(),
                                  want.end());
  return ::testing::AssertionFailure()
         << got.size() << " bytes vs " << want.size()
         << ", first difference at offset " << (diff.first - got.begin());
}

/// ERR's SC, DRR's deficit or SRR's credit, for the disciplines whose
/// pool is public; nullopt for the rest.
std::optional<double> surplus(const Scheduler& s, Kind kind, FlowId flow) {
  switch (kind) {
    case Kind::kErr:
      return dynamic_cast<const ErrScheduler&>(s).policy().surplus_count(flow);
    case Kind::kDrr:
      return dynamic_cast<const DrrScheduler&>(s).policy().deficit(flow);
    case Kind::kSrr:
      return dynamic_cast<const SrrScheduler&>(s).credit(flow);
    default:
      return std::nullopt;
  }
}

/// Every configured flow answers like the model's; a flow without a row
/// answers the defaults there.
void expect_same_answers(const Scheduler& s, const DenseModel& m, Kind kind,
                         const std::string& where) {
  for (std::size_t i = 0; i < s.num_flows(); ++i) {
    const auto f = static_cast<std::uint32_t>(i);
    ASSERT_EQ(s.queue_length(FlowId(f)), m.queue_length(f)) << where << i;
    ASSERT_EQ(s.weight(FlowId(f)), m.weight(f)) << where << i;
    if (const auto sc = surplus(s, kind, FlowId(f))) {
      ASSERT_EQ(*sc, m.surplus(f)) << where << i;
    }
  }
}

struct Trace {
  std::size_t flows = 0;
  std::vector<std::uint32_t> priority;
  std::vector<std::pair<std::uint32_t, double>> weights;
  std::vector<std::vector<Packet>> arrivals;  // by cycle
  std::vector<Cycle> splits;
};

/// Mostly idle flows: a few dozen carry traffic, a few more only get a
/// weight, and the rest are never touched.
Trace make_trace(std::uint64_t seed) {
  Rng rng(seed);
  Trace t;
  t.flows = 1'000 + rng.uniform_u64(4'001);
  for (std::size_t f = 0; f < t.flows; ++f)
    t.priority.push_back(static_cast<std::uint32_t>(rng.uniform_u64(kClasses)));
  const auto any_flow = [&] {
    return static_cast<std::uint32_t>(rng.uniform_u64(t.flows));
  };
  std::vector<std::uint32_t> busy(2 + rng.uniform_u64(40));
  for (std::uint32_t& f : busy) f = any_flow();
  constexpr double kWeights[] = {1.0, 1.5, 2.0, 3.0};
  for (std::size_t i = rng.uniform_u64(12); i > 0; --i)
    t.weights.emplace_back(any_flow(), kWeights[rng.uniform_u64(4)]);
  for (std::size_t i = 0; i < busy.size(); i += 3)
    t.weights.emplace_back(busy[i], kWeights[rng.uniform_u64(4)]);
  t.arrivals.resize(kCycles);
  const Cycle gap_start = 600 + rng.uniform_u64(600);
  PacketId::rep_type id = 0;
  for (Cycle c = 0; c < kCycles; ++c) {
    if (c >= gap_start && c < gap_start + 150) continue;
    if (rng.uniform_u64(100) >= 22) continue;
    Packet p;
    p.id = PacketId(id++);
    p.flow = FlowId(busy[rng.uniform_u64(busy.size())]);
    p.length = static_cast<Flits>(1 + rng.uniform_u64(kQuantum));
    t.arrivals[c].push_back(p);
  }
  for (std::size_t i = 1 + rng.uniform_u64(3); i > 0; --i)
    t.splits.push_back(1 + rng.uniform_u64(kCycles - 1));
  std::sort(t.splits.begin(), t.splits.end());
  return t;
}

class FlowRowsDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowRowsDifferential, RowsMatchDenseLayout) {
  const Trace trace = make_trace(GetParam());
  SchedulerParams params;
  params.num_flows = trace.flows;
  params.drr_quantum = kQuantum;
  params.perr_priorities = trace.priority;

  for (const Discipline& d : kDisciplines) {
    const std::string tag = std::string(d.name) + " flow ";
    std::unique_ptr<Scheduler> s = make_scheduler(d.name, params);
    ASSERT_NE(s, nullptr) << d.name;
    DenseModel model(d.kind, trace.flows, trace.priority);
    for (const auto& [flow, w] : trace.weights) {
      s->set_weight(FlowId(flow), w);
      model.set_weight(flow, w);
    }
    std::size_t next_split = 0;
    for (Cycle c = 0; c < kCycles; ++c) {
      if (next_split < trace.splits.size() && trace.splits[next_split] == c) {
        ++next_split;
        const std::vector<std::uint8_t> bytes = saved(*s);
        ASSERT_TRUE(same_bytes(bytes, model.save()))
            << d.name << " save at " << c;
        expect_same_answers(*s, model, d.kind, tag);
        std::unique_ptr<Scheduler> restored = make_scheduler(d.name, params);
        SnapshotReader r(bytes);
        restore_fields(r, *restored);
        ASSERT_TRUE(same_bytes(saved(*restored), bytes))
            << d.name << " resave at " << c;
        expect_same_answers(*restored, model, d.kind, tag);
        s = std::move(restored);
      }
      for (const Packet& p : trace.arrivals[c]) {
        s->enqueue(c, p);
        model.enqueue(c, p);
      }
      const std::optional<FlitEvent> got = s->pull_flit(c);
      const std::optional<Flit> want = model.pull(c);
      ASSERT_EQ(got.has_value(), want.has_value()) << d.name << " at " << c;
      if (got.has_value()) {
        const Flit flit{got->flow.value(), got->packet.value(), got->index,
                        got->is_head, got->is_tail};
        ASSERT_EQ(flit, *want) << d.name << " at " << c;
      }
    }
    ASSERT_TRUE(same_bytes(saved(*s), model.save())) << d.name << " final save";
    expect_same_answers(*s, model, d.kind, tag);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowRowsDifferential,
                         ::testing::Range<std::uint64_t>(1, kSeeds + 1));

TEST(FlowRows, RowlessFlowsAnswerTheDefaults) {
  for (const Discipline& d : kDisciplines) {
    SchedulerParams params;
    params.num_flows = 10;
    params.drr_quantum = kQuantum;
    std::unique_ptr<Scheduler> s = make_scheduler(d.name, params);
    const DenseModel model(d.kind, 10, std::vector<std::uint32_t>(10, 0));
    expect_same_answers(*s, model, d.kind, std::string(d.name) + " flow ");
    EXPECT_TRUE(same_bytes(saved(*s), model.save())) << d.name;
  }
}

}  // namespace
}  // namespace wormsched::core
