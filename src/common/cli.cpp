#include "common/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "common/assert.hpp"

namespace wormsched {
namespace {

// True iff `value` is one of the spellings get_flag understands.  Kept in
// sync with get_flag so `--audit=on` is rejected at parse time instead of
// silently reading back as false.
bool is_flag_value(const std::string& value) {
  return value == "true" || value == "false" || value == "1" ||
         value == "0" || value == "yes" || value == "no";
}

// Parses the FULL string into `out` with std::from_chars.  Returns a
// static description of the failure ("is not a ...", "overflows ...") or
// nullptr on success.  Leading '+' and surrounding whitespace are not
// accepted; neither is trailing junk ("10x").
template <typename T>
const char* parse_full(const std::string& text, T* out,
                       const char* type_name, const char* overflow_name) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, *out);
  if (ec == std::errc::result_out_of_range) return overflow_name;
  if (ec != std::errc{} || ptr != last || text.empty()) return type_name;
  return nullptr;
}

}  // namespace

void CliParser::option_error(const std::string& name,
                             const std::string& message) {
  std::fprintf(stderr, "option --%s: %s\n", name.c_str(), message.c_str());
  std::exit(2);
}

CliParser::CliParser(std::string program_description)
    : description_(std::move(program_description)) {}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  options_[name] = Option{help, default_value, /*is_flag=*/false, {}, {}, {}};
}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  options_[name] = Option{help, "false", /*is_flag=*/true, {}, {}, {}};
}

void CliParser::add_choice_flag(const std::string& name,
                                const std::string& help,
                                std::vector<std::string> choices,
                                const std::string& bare_value,
                                const std::string& default_value) {
  WS_CHECK_MSG(!choices.empty(), "choice flag needs at least one choice");
  const auto known = [&](const std::string& v) {
    for (const auto& c : choices)
      if (c == v) return true;
    return false;
  };
  WS_CHECK_MSG(known(bare_value), "bare value must be a declared choice");
  WS_CHECK_MSG(known(default_value), "default must be a declared choice");
  options_[name] = Option{help,
                          default_value,
                          /*is_flag=*/false,
                          {},
                          std::move(choices),
                          bare_value};
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stdout);
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      std::exit(2);
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = options_.find(name);
    if (it == options_.end()) option_error(name, "unknown option");
    Option& opt = it->second;
    if (opt.is_flag) {
      if (inline_value && !is_flag_value(*inline_value))
        option_error(name, "'" + *inline_value +
                               "' is not a flag value "
                               "(use true/false, 1/0, or yes/no)");
      opt.value = inline_value.value_or("true");
    } else if (!opt.choices.empty()) {
      // A choice flag without `=` takes the next token when that token is
      // one of its choices (`--audit off`), and reads as bare otherwise.
      const auto known = [&opt](const std::string& v) {
        for (const auto& c : opt.choices)
          if (c == v) return true;
        return false;
      };
      if (!inline_value && i + 1 < argc && known(argv[i + 1]))
        inline_value = argv[++i];
      const std::string value = inline_value.value_or(opt.bare_value);
      if (!known(value)) {
        std::string expect;
        for (const auto& c : opt.choices) {
          if (!expect.empty()) expect += "|";
          expect += c;
        }
        option_error(name, "'" + value + "' is not one of " + expect);
      }
      opt.value = value;
    } else if (inline_value) {
      opt.value = *inline_value;
    } else {
      if (i + 1 >= argc) option_error(name, "expects a value");
      opt.value = argv[++i];
    }
  }
}

std::string CliParser::get(const std::string& name) const {
  const auto it = options_.find(name);
  WS_CHECK_MSG(it != options_.end(), "undeclared option queried");
  return it->second.value.value_or(it->second.default_value);
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string value = get(name);
  std::int64_t out = 0;
  if (const char* what = parse_full(value, &out, "is not an integer",
                                    "overflows a signed 64-bit integer"))
    option_error(name, "'" + value + "' " + what);
  return out;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const std::string value = get(name);
  // from_chars on an unsigned type rejects '-' outright, so "-1" reports
  // "is not a non-negative integer" rather than wrapping to 2^64-1.
  std::uint64_t out = 0;
  if (const char* what =
          parse_full(value, &out, "is not a non-negative integer",
                     "overflows an unsigned 64-bit integer"))
    option_error(name, "'" + value + "' " + what);
  return out;
}

std::uint32_t CliParser::get_u32(const std::string& name) const {
  const std::string value = get(name);
  std::uint32_t out = 0;
  if (const char* what =
          parse_full(value, &out, "is not a non-negative integer",
                     "overflows an unsigned 32-bit integer"))
    option_error(name, "'" + value + "' " + what);
  return out;
}

double CliParser::get_double(const std::string& name) const {
  const std::string value = get(name);
  double out = 0.0;
  if (const char* what = parse_full(value, &out, "is not a number",
                                    "is out of range for a double"))
    option_error(name, "'" + value + "' " + what);
  return out;
}

bool CliParser::get_flag(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes";
}

bool CliParser::given(const std::string& name) const {
  const auto it = options_.find(name);
  WS_CHECK_MSG(it != options_.end(), "undeclared option queried");
  return it->second.value.has_value();
}

std::vector<std::pair<std::string, std::string>> CliParser::items() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(options_.size());
  for (const auto& [name, opt] : options_)
    out.emplace_back(name, opt.value.value_or(opt.default_value));
  return out;
}

std::string CliParser::usage(const std::string& program) const {
  std::string text = description_ + "\n\nusage: " + program + " [options]\n";
  for (const auto& [name, opt] : options_) {
    text += "  --" + name;
    if (!opt.choices.empty()) {
      text += "[=";
      for (std::size_t i = 0; i < opt.choices.size(); ++i) {
        if (i != 0) text += "|";
        text += opt.choices[i];
      }
      text += "]";
    } else if (!opt.is_flag) {
      text += " <value>";
    }
    text += "\n      " + opt.help;
    if (!opt.choices.empty())
      text += " (bare: " + opt.bare_value +
              "; default: " + opt.default_value + ")";
    else if (!opt.is_flag)
      text += " (default: " + opt.default_value + ")";
    text += "\n";
  }
  return text;
}

}  // namespace wormsched
