#include "common/archive.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace wormsched {

namespace {

/// A field's bits as its own type.
std::string text(FieldInfo::Kind kind, std::uint64_t v) {
  switch (kind) {
    case FieldInfo::Kind::kSigned:
      return std::to_string(static_cast<long long>(v));
    case FieldInfo::Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", std::bit_cast<double>(v));
      return buf;
    }
    default:
      return std::to_string(static_cast<unsigned long long>(v));
  }
}

/// "[lo, hi]", appended piecewise: GCC 12 reports a false -Wrestrict on
/// "[" + std::string at -O3.
std::string bracketed(FieldInfo::Kind kind, std::uint64_t lo,
                      std::uint64_t hi) {
  std::string out(1, '[');
  out += text(kind, lo);
  out += ", ";
  out += text(kind, hi);
  out += ']';
  return out;
}

}  // namespace

std::string FieldInfo::range() const {
  return ranged ? bracketed(kind, lo, hi) : std::string();
}

template <typename T>
void Archive::reject(std::string_view name, T x, Range<T> range,
                     bool exact) const {
  if (exact)
    mismatch(name, text(kind_of<T>(), bits(x)),
             text(kind_of<T>(), bits(range.lo)));
  out_of_range(name, kind_of<T>(), bits(x), bits(range.lo), bits(range.hi));
}

template void Archive::reject(std::string_view, std::uint8_t,
                              Range<std::uint8_t>, bool) const;
template void Archive::reject(std::string_view, std::uint32_t,
                              Range<std::uint32_t>, bool) const;
template void Archive::reject(std::string_view, std::uint64_t,
                              Range<std::uint64_t>, bool) const;
template void Archive::reject(std::string_view, std::int64_t,
                              Range<std::int64_t>, bool) const;
template void Archive::reject(std::string_view, double, Range<double>,
                              bool) const;

void Archive::str(std::string_view name, std::string& v) {
  if (saving()) {
    w_->str(v);
    return;
  }
  const Scope s = scope(name);
  record<std::uint64_t>("length", sizeof(std::uint64_t),
                        FieldInfo::Kind::kUnsigned, nullptr);
  const std::uint64_t n = r_->u64();
  const auto width =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, r_->remaining()));
  record<std::uint8_t>("bytes", width, FieldInfo::Kind::kBytes, nullptr);
  const std::uint8_t* bytes = r_->raw(n);
  v.assign(reinterpret_cast<const char*>(bytes), static_cast<std::size_t>(n));
}

std::uint64_t Archive::count(std::string_view name, std::uint64_t n,
                             std::uint64_t max, std::size_t element_width) {
  if (saving()) {
    w_->u64(n);
    return n;
  }
  const Scope s = scope(name);
  // Every element takes at least `element_width` bytes: a count above
  // what the bytes left after it can hold is corrupt.
  const std::size_t left =
      r_->remaining() - std::min<std::size_t>(r_->remaining(), 8);
  const Range<std::uint64_t> range{
      0, std::min<std::uint64_t>(max, left / element_width)};
  std::uint64_t stored = 0;
  scalar("count", stored, &range);
  return stored;
}

void Archive::doubles(std::string_view name, std::vector<double>& v,
                      std::uint64_t size) {
  if (saving()) {
    save_doubles(*w_, v);
    return;
  }
  std::uint64_t n = size;
  if (size == kNoMax) {
    n = count(name, v.size(), kNoMax, sizeof(double));
  } else {
    const Scope s = scope(name);
    fingerprint<std::uint64_t>("count", size);
  }
  v.resize(static_cast<std::size_t>(n));
  // A map gets one entry per element; the values are read below either way.
  if (map_ != nullptr) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const Scope s = scope(name, i);
      record<double>("", sizeof(double), FieldInfo::Kind::kDouble, nullptr);
      map_->back().offset += i * sizeof(double);
    }
  }
  const std::uint8_t* in = r_->raw(n * sizeof(double));
  if constexpr (std::endian::native == std::endian::little) {
    // The file's byte order is the host's: one copy.
    if (n != 0) std::memcpy(v.data(), in, n * sizeof(double));
  } else {
    for (double& x : v) {
      x = std::bit_cast<double>(load_le<std::uint64_t>(in));
      in += sizeof(double);
    }
  }
}

FieldInfo& Archive::begin_record(std::string_view name, std::size_t width,
                                 FieldInfo::Kind kind) {
  FieldInfo& f = map_->emplace_back();
  f.path = path(name);
  f.offset = r_->position();
  f.width = width;
  f.kind = kind;
  return f;
}

std::string Archive::path(std::string_view name) const {
  std::string p;
  const auto add = [&p](std::string_view part) {
    if (part.empty()) return;
    if (!p.empty()) p += '.';
    p += part;
  };
  for (std::size_t i = 0; i < depth_; ++i) {
    const Frame& f = frames_[i];
    add(f.name);
    if (f.index != kNoIndex) {
      p += '[';
      p += std::to_string(f.index);
      p += ']';
    }
  }
  add(name);
  return p;
}

void Archive::fail(std::string_view name, const std::string& what) const {
  throw SnapshotError("snapshot field " + path(name) + " " + what);
}

void Archive::out_of_range(std::string_view name, FieldInfo::Kind kind,
                           std::uint64_t value, std::uint64_t lo,
                           std::uint64_t hi) const {
  fail(name, "= " + text(kind, value) + " is outside " +
                 bracketed(kind, lo, hi));
}

void Archive::mismatch(std::string_view name, const std::string& value,
                       const std::string& expected) const {
  fail(name, "= " + value + " does not match this run's " + expected);
}

}  // namespace wormsched
