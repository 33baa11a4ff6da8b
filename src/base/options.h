// Table-driven options. One row per option holds its name, value hint, help
// text and the one function that parses and applies a value, so an option is
// validated in one place however it arrives: as a command-line flag
// "--name=value" or as a request header "X-Name: value".

#ifndef MUSKETEER_SRC_BASE_OPTIONS_H_
#define MUSKETEER_SRC_BASE_OPTIONS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "src/base/status.h"

namespace musketeer {

template <typename Target>
struct OptionRow {
  std::string_view name;   // flag "--name", header "X-Name"
  std::string_view value;  // value hint in the usage text; empty = a switch
  std::string_view help;   // usage text; '\n' starts a continuation line
  // Parses `value` into `target`; a switch given as a flag sees "1". Errors
  // read after the option's name: "needs a count >= 1, got 'x'".
  Status (*apply)(std::string_view value, Target* target);
};

// "deadline-ms" -> "X-Deadline-Ms".
std::string OptionHeaderName(std::string_view name);
// One usage line per row: the flag text padded to a column, then the help.
std::string OptionUsageLine(std::string_view name, std::string_view value,
                            std::string_view help);

template <typename Target>
std::string OptionUsage(std::span<const OptionRow<Target>> rows) {
  std::string out;
  for (const OptionRow<Target>& row : rows) {
    out += OptionUsageLine(row.name, row.value, row.help);
  }
  return out;
}

// Applies the flag `arg` ("--name=value", or "--name" for a switch) with
// the row of that name. nullopt when no row has the name; an error when a
// switch is given a value, a valued row none, or the row rejects it.
template <typename Target>
std::optional<Status> ApplyFlag(std::span<const OptionRow<Target>> rows,
                                std::string_view arg, Target* target) {
  if (arg.substr(0, 2) != "--") {
    return std::nullopt;
  }
  arg.remove_prefix(2);
  const size_t eq = arg.find('=');
  const std::string_view name = arg.substr(0, eq);
  for (const OptionRow<Target>& row : rows) {
    if (row.name != name) {
      continue;
    }
    const std::string flag = std::string("--").append(name);
    if (row.value.empty() != (eq == std::string_view::npos)) {
      return InvalidArgumentError(
          row.value.empty() ? flag + " takes no value"
                            : flag + " needs =" + std::string(row.value));
    }
    Status applied = row.apply(
        eq == std::string_view::npos ? "1" : arg.substr(eq + 1), target);
    if (!applied.ok()) {
      return InvalidArgumentError(flag + " " + applied.message());
    }
    return applied;
  }
  return std::nullopt;
}

// Option values: the whole string must parse and land in [min, max];
// doubles must be finite. The error is "needs <what>, got '<value>'".
StatusOr<int64_t> ParseIntOption(std::string_view value, int64_t min,
                                 int64_t max, std::string_view what);
StatusOr<double> ParseRealOption(std::string_view value, double min,
                                 double max, std::string_view what);
// "needs <what>, got '<value>'" as an InvalidArgument status.
Status OptionValueError(std::string_view value, std::string_view what);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BASE_OPTIONS_H_
