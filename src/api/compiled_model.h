// Forwarding header: a single tree compiles to a one-tree CompiledForest
// (api/compiled_forest.h). The CompiledModel name remains as an alias for
// code written against the former single-tree artifact.

#ifndef UDT_API_COMPILED_MODEL_H_
#define UDT_API_COMPILED_MODEL_H_

#include "api/compiled_forest.h"

namespace udt {

using CompiledModel = CompiledForest;

}  // namespace udt

#endif  // UDT_API_COMPILED_MODEL_H_
