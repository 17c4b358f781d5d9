#include "src/serve/protocol.h"

namespace catapult::serve {

const char* ToString(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kMemoryPressure:
      return "memory_pressure";
    case ShedReason::kDraining:
      return "draining";
    case ShedReason::kSessionLimit:
      return "session_limit";
  }
  return "unknown";
}

}  // namespace catapult::serve
