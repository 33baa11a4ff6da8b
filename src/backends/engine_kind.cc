#include "src/backends/engine_kind.h"

#include "src/base/strings.h"

namespace musketeer {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kHadoop:
      return "Hadoop";
    case EngineKind::kSpark:
      return "Spark";
    case EngineKind::kNaiad:
      return "Naiad";
    case EngineKind::kPowerGraph:
      return "PowerGraph";
    case EngineKind::kGraphChi:
      return "GraphChi";
    case EngineKind::kMetis:
      return "Metis";
    case EngineKind::kSerialC:
      return "SerialC";
  }
  return "Unknown";
}

std::optional<EngineKind> EngineKindFromName(std::string_view name) {
  for (EngineKind kind : kAllEngines) {
    if (EqualsIgnoreCase(name, EngineKindName(kind))) {
      return kind;
    }
  }
  return std::nullopt;
}

bool IsDistributedEngine(EngineKind kind) {
  switch (kind) {
    case EngineKind::kHadoop:
    case EngineKind::kSpark:
    case EngineKind::kNaiad:
    case EngineKind::kPowerGraph:
      return true;
    case EngineKind::kGraphChi:
    case EngineKind::kMetis:
    case EngineKind::kSerialC:
      return false;
  }
  return false;
}

bool IsGraphOnlyEngine(EngineKind kind) {
  return kind == EngineKind::kPowerGraph || kind == EngineKind::kGraphChi;
}

}  // namespace musketeer
