// Small command-line option parser for the CLI, examples and benches.
//
// Supports `--name value`, `--name=value` and boolean `--name`; there are
// no positional arguments.  One exit contract for argv: `--help` prints
// usage to stdout and exits 0, a token that is not an option exits 2 with
// one "unexpected argument '<token>'" line on stderr, and every bad option
// exits 2 with one "option --<name>: ..." line on stderr (option_error):
// an unknown option (catches typos in sweep scripts), a missing value, a
// flag value
// outside true/false/1/0/yes/no (`--audit=on`), an unknown choice, or a
// numeric value that is junk (`--cycles=10x`), overflows, or is negative
// for an unsigned getter (std::from_chars on the full string).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wormsched {

class CliParser {
 public:
  CliParser(std::string program_description);

  /// Declares an option.  `help` appears in usage(); `default_value` is
  /// returned when the option is absent.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);
  void add_flag(const std::string& name, const std::string& help);
  /// Declares an enumerated option.  `--name=choice` is validated against
  /// `choices` at parse time; `--name choice` takes the next token when
  /// it is one of `choices`; bare `--name` reads back as `bare_value`; an
  /// absent option reads back as `default_value`.  Both `bare_value` and
  /// `default_value` must themselves be in `choices`.
  void add_choice_flag(const std::string& name, const std::string& help,
                       std::vector<std::string> choices,
                       const std::string& bare_value,
                       const std::string& default_value);

  /// Parses argv.  `--help` prints usage to stdout and exits 0; a bad
  /// option exits 2 through option_error.  Flag options accept inline
  /// values from {true,false,1,0,yes,no} only.
  void parse(int argc, const char* const* argv);

  /// Prints "option --<name>: <message>" to stderr and exits 2: the one
  /// reporter for every bad option value, here and in front ends that
  /// check ranges or convert values further.
  [[noreturn]] static void option_error(const std::string& name,
                                        const std::string& message);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// Numeric getters: the whole value must parse (std::from_chars) and
  /// fit the type; otherwise they print "option --<name>: ..." to stderr
  /// and exit(2).  In particular a negative value can never reach an
  /// unsigned option by wrapping.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  [[nodiscard]] std::uint32_t get_u32(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_flag(const std::string& name) const;
  /// True iff argv set the option (its default does not count).
  [[nodiscard]] bool given(const std::string& name) const;

  /// Every declared option with its effective (parsed-or-default) value,
  /// in declaration-name order.  Run manifests record this as the
  /// invocation's full configuration.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> items()
      const;

  [[nodiscard]] std::string usage(const std::string& program) const;

 private:
  struct Option {
    std::string help;
    std::string default_value;
    bool is_flag = false;
    std::optional<std::string> value;
    // Choice flags: non-empty `choices` marks the option; `bare_value` is
    // what a value-less `--name` means.
    std::vector<std::string> choices;
    std::string bare_value;
  };

  std::string description_;
  std::map<std::string, Option> options_;
};

}  // namespace wormsched
