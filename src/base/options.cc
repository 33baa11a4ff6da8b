#include "src/base/options.h"

#include <cctype>
#include <cmath>

#include "src/base/strings.h"

namespace musketeer {

std::string OptionHeaderName(std::string_view name) {
  std::string out = "X-";
  bool word_start = true;
  for (char c : name) {
    out += word_start
               ? static_cast<char>(std::toupper(static_cast<unsigned char>(c)))
               : c;
    word_start = c == '-';
  }
  return out;
}

std::string OptionUsageLine(std::string_view name, std::string_view value,
                            std::string_view help) {
  constexpr size_t kHelpColumn = 33;
  std::string out = std::string("  --").append(name);
  if (!value.empty()) {
    out.append("=").append(value);
  }
  const std::string indent(kHelpColumn, ' ');
  if (out.size() + 2 > kHelpColumn) {
    out += "\n" + indent;
  } else {
    out.resize(kHelpColumn, ' ');
  }
  for (char c : help) {
    out += c;
    if (c == '\n') {
      out += indent;
    }
  }
  return out + "\n";
}

Status OptionValueError(std::string_view value, std::string_view what) {
  return InvalidArgumentError(std::string("needs ")
                                  .append(what)
                                  .append(", got '")
                                  .append(value)
                                  .append("'"));
}

StatusOr<int64_t> ParseIntOption(std::string_view value, int64_t min,
                                 int64_t max, std::string_view what) {
  std::optional<int64_t> n = ParseInt64(value);
  if (!n.has_value() || *n < min || *n > max) {
    return OptionValueError(value, what);
  }
  return *n;
}

StatusOr<double> ParseRealOption(std::string_view value, double min,
                                 double max, std::string_view what) {
  std::optional<double> x = ParseDouble(value);
  if (!x.has_value() || !std::isfinite(*x) || *x < min || *x > max) {
    return OptionValueError(value, what);
  }
  return *x;
}

}  // namespace musketeer
