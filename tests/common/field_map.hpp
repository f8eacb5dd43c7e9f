// Saved state patched by field path.  Tests that craft CRC-valid state a
// run cannot produce look a field up in the describer's map
// (common/archive.hpp) and overwrite it in place, or splice a re-encoded
// object over its span, instead of computing offsets by hand.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/archive.hpp"

namespace wormsched::test {

/// The map entry at `path` (a failed test and an empty entry when absent).
inline const FieldInfo& field_at(const FieldMap& map, std::string_view path) {
  for (const FieldInfo& f : map)
    if (f.path == path) return f;
  ADD_FAILURE() << "no field " << path;
  static const FieldInfo none;
  return none;
}

/// The little-endian value of the field at `path`.
inline std::uint64_t get(const std::vector<std::uint8_t>& bytes,
                         const FieldMap& map, std::string_view path) {
  const FieldInfo& f = field_at(map, path);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < f.width && i < 8; ++i)
    v |= static_cast<std::uint64_t>(bytes[f.offset + i]) << (8 * i);
  return v;
}

/// Overwrites the field at `path` with `v`, at the field's own width.
inline void set(std::vector<std::uint8_t>& bytes, const FieldMap& map,
                std::string_view path, std::uint64_t v) {
  const FieldInfo& f = field_at(map, path);
  for (std::size_t i = 0; i < f.width && i < 8; ++i)
    bytes[f.offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void set_f64(std::vector<std::uint8_t>& bytes, const FieldMap& map,
                    std::string_view path, double v) {
  set(bytes, map, path, std::bit_cast<std::uint64_t>(v));
}

/// Whether `path` is `prefix` or lies under it.
inline bool under(std::string_view path, std::string_view prefix) {
  return path.starts_with(prefix) &&
         (path.size() == prefix.size() || path[prefix.size()] == '.' ||
          path[prefix.size()] == '[');
}

/// The bytes [begin, end) the fields under `prefix` cover.
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
};
inline Span span(const FieldMap& map, std::string_view prefix) {
  Span s{~std::size_t{0}, 0};
  for (const FieldInfo& f : map) {
    if (!under(f.path, prefix)) continue;
    s.begin = std::min(s.begin, f.offset);
    s.end = std::max(s.end, f.offset + f.width);
  }
  if (s.end == 0) ADD_FAILURE() << "no field under " << prefix;
  return s;
}

/// `bytes` with the span under `prefix` replaced by `replacement`, and the
/// length of every section enclosing it adjusted to match.
inline std::vector<std::uint8_t> spliced(
    const std::vector<std::uint8_t>& bytes, const FieldMap& map,
    std::string_view prefix, const std::vector<std::uint8_t>& replacement) {
  const Span s = span(map, prefix);
  const auto at = [&bytes](std::size_t i) {
    return bytes.begin() + static_cast<std::ptrdiff_t>(i);
  };
  std::vector<std::uint8_t> out(bytes.begin(), at(s.begin));
  out.insert(out.end(), replacement.begin(), replacement.end());
  out.insert(out.end(), at(s.end), bytes.end());
  const std::uint64_t removed = s.end - s.begin;
  for (std::size_t i = 1; i < map.size(); ++i) {
    // A section is a "tag" field followed by its "length" field.
    const FieldInfo& tag = map[i - 1];
    const FieldInfo& length = map[i];
    if (!tag.path.ends_with(".tag") || !length.path.ends_with(".length") ||
        length.offset != tag.offset + 4)
      continue;
    const std::uint64_t body = get(bytes, map, length.path);
    const std::size_t body_begin = length.offset + 8;
    if (body_begin <= s.begin && s.end <= body_begin + body)
      set(out, map, length.path, body - removed + replacement.size());
  }
  return out;
}

/// The bytes the fields under `prefix` cover.
inline std::vector<std::uint8_t> span_bytes(
    const std::vector<std::uint8_t>& bytes, const FieldMap& map,
    std::string_view prefix) {
  const Span s = span(map, prefix);
  return std::vector<std::uint8_t>(
      bytes.begin() + static_cast<std::ptrdiff_t>(s.begin),
      bytes.begin() + static_cast<std::ptrdiff_t>(s.end));
}

}  // namespace wormsched::test
