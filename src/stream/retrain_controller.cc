#include "stream/retrain_controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "api/train_request.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "eval/metrics.h"
#include "storage/append_writer.h"
#include "storage/dataset_file.h"
#include "table/schema_io.h"

namespace udt {
namespace stream {

Status RetrainPolicy::Validate() const {
  if (window_capacity < 2) {
    return Status::InvalidArgument(
        StrFormat("RetrainPolicy::window_capacity must be >= 2, got %zu",
                  window_capacity));
  }
  if (min_window < 2 || min_window > window_capacity) {
    return Status::InvalidArgument(StrFormat(
        "RetrainPolicy::min_window must be in [2, window_capacity], got "
        "%zu",
        min_window));
  }
  if (schedule_every < 0) {
    return Status::InvalidArgument(
        StrFormat("RetrainPolicy::schedule_every must be >= 0, got %lld",
                  static_cast<long long>(schedule_every)));
  }
  if (!(holdout_fraction > 0.0 && holdout_fraction < 1.0)) {
    return Status::InvalidArgument(StrFormat(
        "RetrainPolicy::holdout_fraction must be in (0, 1), got %g",
        holdout_fraction));
  }
  if (!(max_regression >= 0.0)) {
    return Status::InvalidArgument(
        StrFormat("RetrainPolicy::max_regression must be >= 0, got %g",
                  max_regression));
  }
  if (warm_trees < 0) {
    return Status::InvalidArgument(StrFormat(
        "RetrainPolicy::warm_trees must be >= 0, got %d", warm_trees));
  }
  if (spill_to_storage) {
    if (spill_path.empty()) {
      return Status::InvalidArgument(
          "RetrainPolicy::spill_to_storage requires spill_path");
    }
    UDT_RETURN_NOT_OK(spill_options.Validate());
  }
  return Status::OK();
}

std::string RetrainReport::ToString() const {
  return StrFormat(
      "retrain[%s]: %s (window %lld, holdout %lld, candidate %.4f vs "
      "incumbent %.4f, oob error %.4f, version %llu)",
      reason.c_str(),
      published ? "published" : (rolled_back ? "rolled back" : "skipped"),
      static_cast<long long>(window_tuples),
      static_cast<long long>(holdout_tuples), candidate_accuracy,
      incumbent_accuracy, oob.error,
      static_cast<unsigned long long>(version));
}

RetrainController::RetrainController(serve::ModelRegistry* registry,
                                     std::string name, Schema schema,
                                     ForestTrainer trainer,
                                     const RetrainPolicy& policy)
    : registry_(registry),
      name_(std::move(name)),
      schema_(std::move(schema)),
      trainer_(std::move(trainer)),
      policy_(policy) {
  UDT_CHECK(registry_ != nullptr);
  UDT_CHECK(policy_.Validate().ok());
}

Status RetrainController::AddLabeled(UncertainTuple tuple) {
  if (tuple.values.size() !=
      static_cast<size_t>(schema_.num_attributes())) {
    return Status::InvalidArgument(
        StrFormat("tuple carries %zu values, schema has %d attributes",
                  tuple.values.size(), schema_.num_attributes()));
  }
  if (tuple.label < 0 || tuple.label >= schema_.num_classes()) {
    return Status::InvalidArgument(
        StrFormat("label %d outside the schema's %d classes", tuple.label,
                  schema_.num_classes()));
  }
  if (window_.size() >= policy_.window_capacity) window_.pop_front();
  window_.push_back(std::move(tuple));
  ++labeled_since_attempt_;
  return Status::OK();
}

bool RetrainController::ScheduleDue() const {
  return policy_.schedule_every > 0 &&
         labeled_since_attempt_ >= policy_.schedule_every &&
         window_.size() >= policy_.min_window;
}

StatusOr<RetrainReport> RetrainController::Bootstrap(
    const Dataset& seed_data) {
  if (incumbent_ != nullptr) {
    return Status::InvalidArgument(
        "Bootstrap must be the first publish; use Retrain afterwards");
  }
  if (!SchemaEquals(seed_data.schema(), schema_)) {
    return Status::InvalidArgument(
        "seed data schema does not match the controller schema");
  }
  return TrainValidatePublish(seed_data, nullptr, "bootstrap");
}

StatusOr<RetrainReport> RetrainController::Retrain(
    const std::string& reason) {
  if (window_.size() < policy_.min_window) {
    return Status::InvalidArgument(StrFormat(
        "retrain window holds %zu tuples, policy requires %zu",
        window_.size(), policy_.min_window));
  }

  // Deterministic striding split: every stride-th tuple is held out, so
  // the same window always produces the same split and both sides
  // interleave across the window's time axis (a suffix holdout would
  // validate only on the newest distribution).
  const size_t stride = std::max<size_t>(
      2, static_cast<size_t>(std::lround(1.0 / policy_.holdout_fraction)));
  Dataset train(schema_);
  Dataset holdout(schema_);
  for (size_t i = 0; i < window_.size(); ++i) {
    Dataset* side = (i % stride == stride - 1) ? &holdout : &train;
    UDT_RETURN_NOT_OK(side->AddTuple(window_[i]));
  }
  if (holdout.empty() || train.empty()) {
    return Status::InvalidArgument(
        "retrain window too small to split off a holdout");
  }
  return TrainValidatePublish(train, &holdout, reason);
}

StatusOr<RetrainReport> RetrainController::TrainValidatePublish(
    const Dataset& train, const Dataset* holdout,
    const std::string& reason) {
  RetrainReport report;
  report.reason = reason;
  report.window_tuples = static_cast<int64_t>(window_.size());
  report.holdout_tuples =
      holdout != nullptr ? holdout->num_tuples() : 0;

  TrainRequest request = TrainRequest::For(train);
  request.oob = &report.oob;
  // Vary the bag/subspace seed per generation so generation g+1 does not
  // redraw generation g's bags over a shifted window.
  request.seed = trainer_.config().seed +
                 static_cast<uint64_t>(generations_) * 0x9e3779b97f4a7c15ull;
  if (policy_.warm_trees > 0 && incumbent_ != nullptr) {
    request.warm_start = incumbent_.get();
    request.warm_trees =
        std::min({policy_.warm_trees, incumbent_->num_trees(),
                  trainer_.config().num_trees});
  }

  // The spill path assembles the training window through the container
  // append path and trains out of core from the re-opened file; the
  // in-memory train set doubles as the grid source, so the quantization
  // axes cover exactly the window being spilled.
  std::optional<DatasetReader> spilled;
  if (policy_.spill_to_storage) {
    UDT_ASSIGN_OR_RETURN(
        DatasetAppendWriter writer,
        DatasetAppendWriter::Open(policy_.spill_path, train,
                                  policy_.spill_options));
    UDT_RETURN_NOT_OK(writer.AppendAll(train));
    UDT_RETURN_NOT_OK(writer.Finalize().status());
    UDT_ASSIGN_OR_RETURN(spilled,
                         DatasetReader::Open(policy_.spill_path));
    request.dataset = nullptr;
    request.storage = &spilled.value();
  }

  UDT_ASSIGN_OR_RETURN(ForestModel candidate, trainer_.Train(request));
  ++generations_;
  // The attempt completed: the schedule restarts whether the candidate is
  // published or rolled back, so a rollback does not leave the schedule
  // due and retrain on every later label.
  labeled_since_attempt_ = 0;

  if (holdout != nullptr) {
    report.candidate_accuracy = EvaluateAccuracy(candidate, *holdout);
    if (incumbent_ != nullptr) {
      report.incumbent_accuracy = EvaluateAccuracy(*incumbent_, *holdout);
      if (report.candidate_accuracy <
          report.incumbent_accuracy - policy_.max_regression) {
        // The candidate regressed: keep serving the incumbent untouched.
        report.rolled_back = true;
        return report;
      }
    }
  }

  report.version = registry_->Publish(name_, candidate.Compile());
  report.published = true;
  incumbent_ = std::make_shared<const ForestModel>(std::move(candidate));
  incumbent_version_ = report.version;
  incumbent_oob_error_ = report.oob.error;
  return report;
}

}  // namespace stream
}  // namespace udt
