// Forwarding header: the serving front end traffics in CompiledForest
// artifacts (api/compiled_forest.h) executed by PredictSession handles
// (api/predict_session.h). serve::Servable and serve::ServeSession remain
// as aliases for code written against the former wrapper types, and the
// header still provides the former api aliases it used to.

#ifndef UDT_SERVE_SERVABLE_H_
#define UDT_SERVE_SERVABLE_H_

#include "api/compiled_model.h"
#include "api/forest_session.h"

namespace udt {
namespace serve {

using Servable = CompiledForest;
using ServeSession = PredictSession;

}  // namespace serve
}  // namespace udt

#endif  // UDT_SERVE_SERVABLE_H_
