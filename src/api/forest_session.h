// Forwarding header: one udt::PredictSession (api/predict_session.h)
// serves every CompiledForest, one tree or many. The ForestPredictSession
// name remains as an alias for code written against the former
// forest-only session.

#ifndef UDT_API_FOREST_SESSION_H_
#define UDT_API_FOREST_SESSION_H_

#include "api/compiled_forest.h"
#include "api/predict_session.h"

namespace udt {

using ForestPredictSession = PredictSession;

}  // namespace udt

#endif  // UDT_API_FOREST_SESSION_H_
