// Checkpoint state, declared once per type.
//
// A stateful type lists its checkpoint bytes in one member,
// `void fields(Archive& a)`: named fixed-width fields in payload order,
// each with its legal range where that range is local to the field (a
// count within the bytes left, an index below a table size, a weight of
// at least 1, an enum up to its last value, a value that must equal this
// run's configuration).  Three walks share that one list:
//
//   * save — an Archive over a SnapshotWriter writes each field;
//   * restore — an Archive over a SnapshotReader reads each field and
//     checks its range before the type sees the value, throwing a
//     SnapshotError that names the field's path and the value;
//   * describe — a restore with a FieldMap attached also records every
//     field's path, payload offset, width and range.  Tests patch a
//     checkpoint by path through that map instead of by offset.
//
// Rules that tie several fields together stay in the type, checked once
// after its fields are read.  With no map attached, save and restore build
// no path strings and allocate nothing per field: a field is an inline,
// bounds-checked write or read plus its range test, and a path is
// assembled only for an error message or a map entry.
#pragma once

#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/snapshot.hpp"
#include "common/types.hpp"

namespace wormsched {

/// One field of a described payload.
struct FieldInfo {
  enum class Kind : std::uint8_t { kUnsigned, kSigned, kDouble, kBytes };

  std::string path;  // e.g. "NNET.routers[3].outputs[2].credits"
  std::size_t offset = 0;  // of its first byte in the payload
  std::size_t width = 0;   // in bytes
  Kind kind = Kind::kBytes;
  /// The declared inclusive range [lo, hi], as the field's own bits (an
  /// i64's two's complement, an f64's bit pattern); unset when any value
  /// of the width is legal.
  bool ranged = false;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  /// "[lo, hi]" in the field's own type; empty when unranged.
  [[nodiscard]] std::string range() const;
};
using FieldMap = std::vector<FieldInfo>;

/// Inclusive legal range of a field; empty when lo > hi.
template <typename T>
struct Range {
  T lo;
  T hi;
};

template <typename T>
constexpr T range_max() {
  if constexpr (std::is_floating_point_v<T>)
    return std::numeric_limits<T>::infinity();
  else
    return std::numeric_limits<T>::max();
}
template <typename T>
constexpr T range_min() {
  if constexpr (std::is_floating_point_v<T>)
    return -std::numeric_limits<T>::infinity();
  else
    return std::numeric_limits<T>::lowest();
}

/// An index into a table of `n` entries.
template <std::integral T>
constexpr Range<T> below(T n) {
  return n == 0 ? Range<T>{1, 0} : Range<T>{0, static_cast<T>(n - 1)};
}
template <typename T>
constexpr Range<T> at_most(T hi) {
  return {range_min<T>(), hi};
}
template <typename T>
constexpr Range<T> at_least(T lo) {
  return {lo, range_max<T>()};
}
/// A strictly positive double (NaN fails every double range).
constexpr Range<double> positive() {
  return at_least(std::numeric_limits<double>::denorm_min());
}
/// A finite double >= 0.
constexpr Range<double> non_negative() {
  return {0.0, std::numeric_limits<double>::max()};
}

class Archive {
 public:
  /// Saves into `w`.
  explicit Archive(SnapshotWriter& w) : w_(&w) {}
  /// Restores from `r`; with `map`, also records every field read.
  explicit Archive(SnapshotReader& r, FieldMap* map = nullptr)
      : r_(&r), map_(map) {}

  [[nodiscard]] bool saving() const { return w_ != nullptr; }
  [[nodiscard]] bool loading() const { return r_ != nullptr; }

  /// --- Scalars ------------------------------------------------------------
  void b(std::string_view name, bool& v) {
    std::uint8_t x = v ? 1 : 0;
    scalar(name, x, nullptr);
    if (loading()) v = x != 0;
  }
  void u32(std::string_view name, std::uint32_t& v) {
    scalar(name, v, nullptr);
  }
  void u32(std::string_view name, std::uint32_t& v,
           Range<std::uint32_t> range) {
    scalar(name, v, &range);
  }
  void u64(std::string_view name, std::uint64_t& v) {
    scalar(name, v, nullptr);
  }
  void u64(std::string_view name, std::uint64_t& v,
           Range<std::uint64_t> range) {
    scalar(name, v, &range);
  }
  void i64(std::string_view name, std::int64_t& v) {
    scalar(name, v, nullptr);
  }
  void i64(std::string_view name, std::int64_t& v,
           Range<std::int64_t> range) {
    scalar(name, v, &range);
  }
  /// Exact: the double's bit pattern.
  void f64(std::string_view name, double& v) { scalar(name, v, nullptr); }
  void f64(std::string_view name, double& v, Range<double> range) {
    scalar(name, v, &range);
  }
  /// Unranged when `range` is null.
  void f64(std::string_view name, double& v, const Range<double>* range) {
    scalar(name, v, range);
  }
  /// A u64-sized field held in a std::size_t member.
  void size(std::string_view name, std::size_t& v) {
    std::uint64_t x = v;
    u64(name, x);
    if (loading()) v = static_cast<std::size_t>(x);
  }
  /// A strong id, stored at its representation's width.
  template <typename Tag, typename Rep>
  void id(std::string_view name, StrongId<Tag, Rep>& v) {
    Rep x = v.value();
    scalar(name, x, nullptr);
    if (loading()) v = StrongId<Tag, Rep>(x);
  }
  template <typename Tag, typename Rep>
  void id(std::string_view name, StrongId<Tag, Rep>& v, Range<Rep> range) {
    Rep x = v.value();
    scalar(name, x, &range);
    if (loading()) v = StrongId<Tag, Rep>(x);
  }
  /// An enum stored as a `U`, legal up to `last`.
  template <std::unsigned_integral U, typename E>
  void enumeration(std::string_view name, E& v, E last) {
    U x = static_cast<U>(v);
    const Range<U> range{0, static_cast<U>(last)};
    scalar(name, x, &range);
    if (loading()) v = static_cast<E>(x);
  }
  /// A u64 length, then the bytes.
  void str(std::string_view name, std::string& v);

  /// A value that must equal this run's `expected` (a configuration
  /// fingerprint: geometry, flow-control settings, table sizes); an enum
  /// is stored as a u8.
  template <typename T>
  void fingerprint(std::string_view name, const T& expected) {
    if constexpr (std::is_same_v<T, std::string>) {
      std::string v = expected;
      str(name, v);
      if (loading() && v != expected)
        mismatch(name, "'" + v + "'", "'" + expected + "'");
    } else {
      using Stored = std::conditional_t<std::is_enum_v<T>, std::uint8_t, T>;
      auto v = static_cast<Stored>(expected);
      const Range<Stored> range{v, v};
      scalar(name, v, &range, /*exact=*/true);
    }
  }

  /// --- Sequences ----------------------------------------------------------
  /// A u64 element count: `n` on save; on restore the stored count,
  /// rejected when it exceeds the bytes left (every element is at least
  /// one byte) or `max`, before anything is allocated for it.
  std::uint64_t count(std::string_view name, std::uint64_t n,
                      std::uint64_t max = kNoMax,
                      std::size_t element_width = 1);

  /// A count, then each element declared by `elem(element)`.
  template <typename C, typename Fn>
  void seq(std::string_view name, C& c, Fn elem,
           std::uint64_t max = kNoMax) {
    const std::uint64_t n = count(name, c.size(), max);
    if (saving()) {
      for (std::size_t i = 0; i < c.size(); ++i) elem(c[i]);
      return;
    }
    c.clear();
    // A vector is sized once; a ring buffer keeps its own growth.
    if constexpr (std::is_same_v<C, std::vector<typename C::value_type>>)
      c.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      const Scope s = scope(name, i);
      typename C::value_type e{};
      elem(e);
      c.push_back(std::move(e));
    }
  }

  /// A u64 count that must equal this run's table size, then each element.
  template <typename C, typename Fn>
  void table(std::string_view name, C& c, Fn elem) {
    {
      const Scope s = scope(name);
      fingerprint<std::uint64_t>("count", c.size());
    }
    each(name, c, elem);
  }

  /// Each element of a table both sides size alike, with no count.
  template <typename C, typename Fn>
  void each(std::string_view name, C& c, Fn elem) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      const Scope s = scope(name, i);
      elem(c[i]);
    }
  }

  /// A count and then the doubles, written and read in bulk (a latency
  /// reservoir is most of a fabric checkpoint).  With `size`, the count
  /// must equal it.
  void doubles(std::string_view name, std::vector<double>& v,
               std::uint64_t size = kNoMax);

  /// A priority queue as the sequence of its pops, rebuilt by pushing
  /// them back in that order: under a strict total order that keeps every
  /// future pop identical.
  template <typename PQ, typename Fn>
  void heap(std::string_view name, PQ& pq, Fn elem,
            std::uint64_t max = kNoMax) {
    std::vector<typename PQ::value_type> entries;
    if (saving())
      for (PQ drain = pq; !drain.empty(); drain.pop())
        entries.push_back(drain.top());
    seq(name, entries, elem, max);
    if (saving()) return;
    pq = {};
    for (const auto& e : entries) pq.push(e);
  }

  /// The per-flow record table: a u64 count that must equal `num_flows`,
  /// then one record per configured flow, declared by `rec(a, record,
  /// flow)`.  Save writes the record `get(flow)` points to, or `dflt` for
  /// a flow without a row (nullptr).  Restore reads each record into a
  /// copy of `dflt` and hands it to `put(flow, record)` only when it
  /// differs from `dflt` bitwise, so rows are built exactly where the
  /// saved run held non-default state.
  template <typename Rec, typename Get, typename Put, typename Fn>
  void flow_table(std::string_view name, std::size_t num_flows,
                  const Rec& dflt, Get get, Put put, Fn rec) {
    {
      const Scope s = scope(name);
      fingerprint<std::uint64_t>("count", num_flows);
    }
    if (saving()) {
      for (std::size_t f = 0; f < num_flows; ++f) {
        const Rec* row = get(f);
        rec(*this, const_cast<Rec&>(row != nullptr ? *row : dflt), f);
      }
      return;
    }
    Rec record = dflt;
    for (std::size_t f = 0; f < num_flows; ++f) {
      const Scope s = scope(name, f);
      record = dflt;
      rec(*this, record, f);
      if (!bitwise_equal(record, dflt)) put(f, std::move(record));
    }
  }

  /// --- Structure ----------------------------------------------------------
  /// A tagged, length-prefixed section holding `body()`'s fields.
  template <typename Fn>
  void section(std::uint32_t tag, std::string_view name, Fn body) {
    if (saving()) {
      w_->begin_section(tag);
      body();
      w_->end_section();
      return;
    }
    const Scope s = scope(name);
    record<std::uint32_t>("tag", sizeof(std::uint32_t),
                          FieldInfo::Kind::kUnsigned, nullptr);
    record<std::uint64_t>("length", sizeof(std::uint64_t),
                          FieldInfo::Kind::kUnsigned, nullptr);
    if (map_ != nullptr) map_->back().offset += sizeof(std::uint32_t);
    r_->enter_section(tag);
    body();
    r_->leave_section();
  }
  /// Restore only: the tag of the next section (0 when none is left).
  [[nodiscard]] std::uint32_t peek_section() const {
    return r_->peek_section();
  }

  /// Names the fields declared while it lives: `name` or `name[index]`
  /// joins their path.  Free when saving.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (a_ != nullptr) --a_->depth_;
    }

   private:
    friend class Archive;
    explicit Scope(Archive* a) : a_(a) {}
    Archive* a_;
  };
  [[nodiscard]] Scope scope(std::string_view name) {
    return scope(name, kNoIndex);
  }
  [[nodiscard]] Scope scope(std::string_view name, std::uint64_t index) {
    if (saving()) return Scope(nullptr);
    WS_CHECK_MSG(depth_ < frames_.size(), "archive scopes nest too deep");
    frames_[depth_++] = Frame{name, index};
    return Scope(this);
  }

  /// Throws SnapshotError naming `name`'s path: for rules a type checks
  /// across fields while they are read.
  [[noreturn]] void fail(std::string_view name, const std::string& what) const;

  static constexpr std::uint64_t kNoMax = ~std::uint64_t{0};

 private:
  static constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

  struct Frame {
    std::string_view name;
    std::uint64_t index;
  };

  /// Bit-for-bit equality of a plain record (its fields hold no padding)
  /// or of a sequence of plain elements.
  template <typename Rec>
  static bool bitwise_equal(const Rec& a, const Rec& b) {
    if constexpr (std::is_trivially_copyable_v<Rec>) {
      return std::memcmp(&a, &b, sizeof(Rec)) == 0;
    } else {
      using T = typename Rec::value_type;
      static_assert(std::is_trivially_copyable_v<T>);
      return a.size() == b.size() &&
             (a.empty() ||
              std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
    }
  }

  template <typename T>
  static constexpr FieldInfo::Kind kind_of() {
    if constexpr (std::is_floating_point_v<T>) return FieldInfo::Kind::kDouble;
    else if constexpr (std::is_signed_v<T>) return FieldInfo::Kind::kSigned;
    else return FieldInfo::Kind::kUnsigned;
  }
  template <typename T>
  static std::uint64_t bits(T v) {
    if constexpr (std::is_same_v<T, double>)
      return std::bit_cast<std::uint64_t>(v);
    else
      return static_cast<std::uint64_t>(v);
  }

  /// One fixed-width field: written, or read, range-checked and (with a
  /// map) recorded.  An `exact` range is a fingerprint, reported as a
  /// mismatch with this run's value.  Saving and restoring with no map
  /// attached are inline; a map entry and an error message are built out
  /// of line (archive.cpp, instantiated for every field type).
  template <typename T>
  void scalar(std::string_view name, T& v,
              const Range<std::type_identity_t<T>>* range,
              bool exact = false) {
    if (w_ != nullptr) {
      if constexpr (sizeof(T) == 1)
        w_->u8(static_cast<std::uint8_t>(v));
      else if constexpr (std::is_same_v<T, double>)
        w_->f64(v);
      else if constexpr (sizeof(T) == 4)
        w_->u32(static_cast<std::uint32_t>(v));
      else
        w_->u64(static_cast<std::uint64_t>(v));
      return;
    }
    if (map_ != nullptr)
      record<T>(name, sizeof(T), kind_of<T>(), range);
    T x;
    if constexpr (sizeof(T) == 1)
      x = static_cast<T>(r_->u8());
    else if constexpr (std::is_same_v<T, double>)
      x = r_->f64();
    else if constexpr (sizeof(T) == 4)
      x = static_cast<T>(r_->u32());
    else
      x = static_cast<T>(r_->u64());
    if (range != nullptr && !(x >= range->lo && x <= range->hi))
      reject(name, x, *range, exact);
    v = x;
  }
  /// Throws the SnapshotError for `x` outside `range`.
  template <typename T>
  [[noreturn]] void reject(std::string_view name, T x, Range<T> range,
                           bool exact) const;

  /// With a map attached, records the field about to be read (the entry
  /// is built out of line, in begin_record).
  template <typename T>
  void record(std::string_view name, std::size_t width, FieldInfo::Kind kind,
              const Range<std::type_identity_t<T>>* range) {
    if (map_ == nullptr) return;
    FieldInfo& f = begin_record(name, width, kind);
    if (range != nullptr) {
      f.ranged = true;
      f.lo = bits(range->lo);
      f.hi = bits(range->hi);
    }
  }
  FieldInfo& begin_record(std::string_view name, std::size_t width,
                          FieldInfo::Kind kind);

  [[nodiscard]] std::string path(std::string_view name) const;
  /// Values as FieldInfo holds them: the field's bits and kind.
  [[noreturn]] void out_of_range(std::string_view name, FieldInfo::Kind kind,
                                 std::uint64_t value, std::uint64_t lo,
                                 std::uint64_t hi) const;
  [[noreturn]] void mismatch(std::string_view name, const std::string& value,
                             const std::string& expected) const;

  SnapshotWriter* w_ = nullptr;
  SnapshotReader* r_ = nullptr;
  FieldMap* map_ = nullptr;
  std::array<Frame, 16> frames_{};
  std::size_t depth_ = 0;
};

/// The generic pair every caller uses: declare once, save or restore.
template <typename T>
void save_fields(SnapshotWriter& w, const T& x) {
  Archive a(w);
  const_cast<T&>(x).fields(a);  // a saving Archive writes no member
}
template <typename T>
void restore_fields(SnapshotReader& r, T& x, FieldMap* map = nullptr) {
  Archive a(r, map);
  x.fields(a);
}

}  // namespace wormsched
