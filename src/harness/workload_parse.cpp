#include "harness/workload_parse.hpp"

#include <charconv>
#include <cmath>
#include <vector>

namespace wormsched::harness {

namespace {

struct Cursor {
  std::string_view text;
  std::string error;
  bool failed = false;

  [[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                    char sep) {
    std::vector<std::string_view> parts;
    while (true) {
      const auto pos = s.find(sep);
      parts.push_back(s.substr(0, pos));
      if (pos == std::string_view::npos) break;
      s = s.substr(pos + 1);
    }
    return parts;
  }

  void fail(const std::string& why) {
    if (!failed) error = why;
    failed = true;
  }
};

// NaN and infinity fail every field: from_chars accepts "nan" and "inf",
// and a NaN slips past every `< 0.0` test below.
bool parse_double(std::string_view s, double* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size() && std::isfinite(*out);
}

bool parse_flits(std::string_view s, Flits* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc{} && ptr == s.data() + s.size() && *out > 0;
}

std::optional<traffic::LengthSpec> parse_length(std::string_view s,
                                                Cursor& cursor) {
  if (s.empty()) {
    cursor.fail("empty length spec");
    return std::nullopt;
  }
  const char kind = s.front();
  const std::string_view rest = s.substr(1);
  const auto parts = cursor.split(rest, '-');
  switch (kind) {
    case 'u': {
      Flits lo = 0;
      Flits hi = 0;
      if (parts.size() != 2 || !parse_flits(parts[0], &lo) ||
          !parse_flits(parts[1], &hi) || lo > hi) {
        cursor.fail("bad uniform length '" + std::string(s) +
                    "' (want u<lo>-<hi>)");
        return std::nullopt;
      }
      return traffic::LengthSpec::uniform(lo, hi);
    }
    case 'e': {
      double lambda = 0.0;
      Flits lo = 0;
      Flits hi = 0;
      if (parts.size() != 3 || !parse_double(parts[0], &lambda) ||
          !parse_flits(parts[1], &lo) || !parse_flits(parts[2], &hi) ||
          lambda <= 0.0 || lo > hi) {
        cursor.fail("bad exponential length '" + std::string(s) +
                    "' (want e<lambda>-<lo>-<hi>)");
        return std::nullopt;
      }
      return traffic::LengthSpec::truncated_exponential(lambda, lo, hi);
    }
    case 'c': {
      Flits len = 0;
      if (parts.size() != 1 || !parse_flits(parts[0], &len)) {
        cursor.fail("bad constant length '" + std::string(s) +
                    "' (want c<len>)");
        return std::nullopt;
      }
      return traffic::LengthSpec::constant(len);
    }
    case 'b': {
      Flits small = 0;
      Flits large = 0;
      double p = 0.0;
      if (parts.size() != 3 || !parse_flits(parts[0], &small) ||
          !parse_flits(parts[1], &large) || !parse_double(parts[2], &p) ||
          p < 0.0 || p > 1.0) {
        cursor.fail("bad bimodal length '" + std::string(s) +
                    "' (want b<small>-<large>-<p>)");
        return std::nullopt;
      }
      return traffic::LengthSpec::bimodal(small, large, p);
    }
    default:
      cursor.fail("unknown length kind '" + std::string(1, kind) + "'");
      return std::nullopt;
  }
}

std::optional<traffic::ArrivalSpec> parse_arrival(std::string_view name,
                                                  double rate,
                                                  Cursor& cursor) {
  if (name == "bern") return traffic::ArrivalSpec::bernoulli(rate);
  if (name == "poisson") return traffic::ArrivalSpec::poisson(rate);
  if (name == "periodic") return traffic::ArrivalSpec::periodic(rate);
  if (name.rfind("onoff-", 0) == 0) {
    const auto parts = cursor.split(name.substr(6), '-');
    double on = 0.0;
    double off = 0.0;
    if (parts.size() != 2 || !parse_double(parts[0], &on) ||
        !parse_double(parts[1], &off) || on <= 0.0 || off <= 0.0) {
      cursor.fail("bad on-off arrival '" + std::string(name) +
                  "' (want onoff-<mean_on>-<mean_off>)");
      return std::nullopt;
    }
    return traffic::ArrivalSpec::on_off(rate, on, off);
  }
  cursor.fail("unknown arrival process '" + std::string(name) + "'");
  return std::nullopt;
}

}  // namespace

std::optional<WorkloadParse> parse_workload(std::string_view text,
                                            std::string* error) {
  Cursor cursor{text, {}, false};
  WorkloadParse result;
  for (std::string_view flow_text : cursor.split(text, ';')) {
    if (flow_text.empty()) {
      cursor.fail("empty flow spec");
      break;
    }
    // Optional repetition suffix.
    std::size_t repeat = 1;
    if (const auto star = flow_text.rfind('*');
        star != std::string_view::npos) {
      const std::string_view count_text = flow_text.substr(star + 1);
      std::uint64_t count = 0;
      const auto [ptr, ec] = std::from_chars(
          count_text.data(), count_text.data() + count_text.size(), count);
      if (ec != std::errc{} || ptr != count_text.data() + count_text.size() ||
          count == 0) {
        cursor.fail("bad repetition '" + std::string(count_text) + "'");
        break;
      }
      repeat = count;
      flow_text = flow_text.substr(0, star);
    }
    const auto fields = cursor.split(flow_text, ':');
    if (fields.size() < 3 || fields.size() > 4) {
      cursor.fail("flow spec '" + std::string(flow_text) +
                  "' needs arrival:rate:length[:weight]");
      break;
    }
    double rate = 0.0;
    if (!parse_double(fields[1], &rate) || rate < 0.0) {
      cursor.fail("bad rate '" + std::string(fields[1]) + "'");
      break;
    }
    const auto arrival = parse_arrival(fields[0], rate, cursor);
    const auto length = parse_length(fields[2], cursor);
    double weight = 1.0;
    if (fields.size() == 4 &&
        (!parse_double(fields[3], &weight) || weight <= 0.0)) {
      cursor.fail("bad weight '" + std::string(fields[3]) + "'");
      break;
    }
    if (cursor.failed) break;
    for (std::size_t k = 0; k < repeat; ++k) {
      traffic::FlowSpec flow;
      flow.arrival = *arrival;
      flow.length = *length;
      flow.weight = weight;
      result.spec.flows.push_back(flow);
      result.weights.push_back(weight);
    }
  }
  if (!cursor.failed && result.spec.flows.empty())
    cursor.fail("no flows specified");
  if (cursor.failed) {
    if (error != nullptr) *error = cursor.error;
    return std::nullopt;
  }
  return result;
}

}  // namespace wormsched::harness
