// The reference interpreter for IR operators.
//
// Every simulated engine delegates operator *semantics* to this interpreter
// (so all back-ends produce identical results by construction) and layers its
// own execution strategy and performance model on top. EvaluateDag is the
// ground truth executor used by integration tests to validate engine output.

#ifndef MUSKETEER_SRC_IR_EVAL_H_
#define MUSKETEER_SRC_IR_EVAL_H_

#include <unordered_map>

#include "src/ir/dag.h"
#include "src/relational/ops.h"
#include "src/relational/table.h"

namespace musketeer {

using TableMap = std::unordered_map<std::string, TablePtr>;

// Compiles a MAP's output expressions against `schema` into batch
// evaluators, appending the output fields to `out_schema`. Where the inferred
// type is kDouble the evaluator widens an integral result to double (a mixed
// int/double expression can evaluate integral; downstream type checks rely
// on the inferred schema). Shared by the interpreter and the engine
// substrates so every MAP evaluates identically.
Status CompileMapExprs(const MapParams& p, const Schema& schema,
                       Schema* out_schema, std::vector<BatchEval>* exprs);

// Executes one non-INPUT, non-WHILE operator on resolved inputs.
StatusOr<Table> EvaluateOperator(const OperatorNode& node,
                                 const std::vector<const Table*>& inputs);

// Executes a whole DAG (including WHILE loops) against `base` relations.
// Returns the relation map of every node output (keyed by relation name).
StatusOr<TableMap> EvaluateDag(const Dag& dag, const TableMap& base);

// Convenience: evaluates and returns only the relation `name`.
StatusOr<Table> EvaluateDagRelation(const Dag& dag, const TableMap& base,
                                    const std::string& name);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_IR_EVAL_H_
