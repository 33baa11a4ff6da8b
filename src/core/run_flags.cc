// RunOptionRows(): the per-submission run options shared by the CLI flags
// and the network front door's X-* headers.

#include <cstdint>
#include <limits>

#include "src/base/strings.h"
#include "src/core/musketeer.h"

namespace musketeer {

namespace {

constexpr OptionRow<RunOptions> kRunOptionRows[] = {
    {"deadline-ms", "N", "workflow budget incl. queue wait",
     [](std::string_view value, RunOptions* options) -> Status {
       MUSKETEER_ASSIGN_OR_RETURN(
           int64_t ms, ParseIntOption(value, 1,
                                      std::numeric_limits<int64_t>::max(),
                                      "a budget >= 1"));
       options->deadline = std::chrono::milliseconds(ms);
       return OkStatus();
     }},
    // A switch on the command line; the header spells it 1|true|0|false.
    {"incremental", "",
     "reuse jobs whose input fingerprints\n"
     "are unchanged since the last run --\n"
     "with --serve/--listen, resubmits\n"
     "recompute only the affected DAG suffix",
     [](std::string_view value, RunOptions* options) -> Status {
       if (value == "1" || EqualsIgnoreCase(value, "true")) {
         options->incremental = true;
       } else if (value == "0" || EqualsIgnoreCase(value, "false")) {
         options->incremental = false;
       } else {
         return OptionValueError(value, "1|true|0|false");
       }
       return OkStatus();
     }},
    {"partitioner", "auto|dp|exhaustive|dp-multi",
     "partitioning strategy; auto picks\n"
     "exhaustive below the op threshold,\n"
     "DP above it",
     [](std::string_view value, RunOptions* options) -> Status {
       auto kind = PartitionStrategyKindFromName(value);
       if (!kind.has_value()) {
         return OptionValueError(value, "one of auto|dp|exhaustive|dp-multi");
       }
       options->planner.strategy = *kind;
       return OkStatus();
     }},
    {"replan-threshold", "R",
     "re-plan the remaining DAG when a\n"
     "job's measured runtime is off by\n"
     "more than Rx from its prediction;\n"
     "0 = off, needs runtime history",
     [](std::string_view value, RunOptions* options) -> Status {
       MUSKETEER_ASSIGN_OR_RETURN(
           options->planner.replan_threshold,
           ParseRealOption(value, 0, std::numeric_limits<double>::max(),
                           "a ratio >= 0 (0 = off)"));
       return OkStatus();
     }},
};

}  // namespace

std::span<const OptionRow<RunOptions>> RunOptionRows() {
  return kRunOptionRows;
}

}  // namespace musketeer
