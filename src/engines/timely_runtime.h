// A simplified timely-dataflow runtime — the execution substrate behind
// Naiad's generic (non-GraphLINQ) path.
//
// The job DAG is instantiated as a push-based operator graph. Messages are
// column batches, as Naiad delivers records to OnRecv in message batches:
// sources push slices of at most kMorselRows rows; row-wise operators
// (SELECT/PROJECT/MAP/UNION) transform each batch with compiled selection
// masks and batch expressions and forward it immediately without
// materializing anything (this is why Naiad needs no LOAD phase and
// pipelines whole workflows in one job); stateful operators (JOIN, GROUP BY,
// set operations, extremes) append incoming batches to per-port buffers and
// fire when an end-of-stream notification has arrived on every port, in
// dataflow order, streaming their result onward in slices. WHILE loops run
// as successive epochs through the same operator graph, feeding each epoch's
// loop output back as the next epoch's input.
//
// Results match the reference interpreter (identical up to floating-point
// summation order); the stats expose how much of the workflow streamed
// without buffering — the structural property the paper's Naiad numbers
// come from. Counts are in records, so they do not depend on the batch size.

#ifndef MUSKETEER_SRC_ENGINES_TIMELY_RUNTIME_H_
#define MUSKETEER_SRC_ENGINES_TIMELY_RUNTIME_H_

#include "src/ir/eval.h"

namespace musketeer {

struct TimelyStats {
  int64_t records_streamed = 0;  // rows received by streaming operators
  int64_t records_buffered = 0;  // rows held by stateful operators
  int notifications = 0;         // end-of-stream notifications delivered
  int epochs = 0;                // loop trips executed
};

struct TimelyResult {
  TableMap relations;
  TimelyStats stats;
};

StatusOr<TimelyResult> ExecuteViaTimely(const Dag& dag, const TableMap& base);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_ENGINES_TIMELY_RUNTIME_H_
