// The seven back-end execution engines Musketeer targets (§1, Table 3).

#ifndef MUSKETEER_SRC_BACKENDS_ENGINE_KIND_H_
#define MUSKETEER_SRC_BACKENDS_ENGINE_KIND_H_

#include <array>
#include <optional>
#include <string>
#include <string_view>

namespace musketeer {

enum class EngineKind {
  kHadoop,      // distributed MapReduce
  kSpark,       // distributed in-memory RDD transformations
  kNaiad,       // distributed timely dataflow
  kPowerGraph,  // distributed GAS vertex-centric graph engine
  kGraphChi,    // single-machine out-of-core vertex-centric engine
  kMetis,       // single-machine multi-core MapReduce
  kSerialC,     // plain single-threaded C code
};

inline constexpr std::array<EngineKind, 7> kAllEngines = {
    EngineKind::kHadoop,     EngineKind::kSpark,    EngineKind::kNaiad,
    EngineKind::kPowerGraph, EngineKind::kGraphChi, EngineKind::kMetis,
    EngineKind::kSerialC,
};

const char* EngineKindName(EngineKind kind);
// Inverse of EngineKindName, any case ("naiad" -> kNaiad); nullopt otherwise.
std::optional<EngineKind> EngineKindFromName(std::string_view name);

// Engines that scale across cluster nodes; the rest use exactly one machine.
bool IsDistributedEngine(EngineKind kind);

// Engines restricted to the vertex-centric / GAS computation model.
bool IsGraphOnlyEngine(EngineKind kind);

}  // namespace musketeer

#endif  // MUSKETEER_SRC_BACKENDS_ENGINE_KIND_H_
