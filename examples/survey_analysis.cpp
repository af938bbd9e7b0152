// Survey analysis: range answers and uncertain categorical attributes
// (Sections 1.3 and 7.2).
//
// A media survey asks "how many hours of TV do you watch per week?" -
// respondents answer with a *range* ("6-8 hours"), modelled as a uniform
// pdf over the range; "hours online" is answered the same way. The
// respondent's dominant content category (news / sports / drama) is
// inferred from proxy logs as a *discrete distribution* over categories -
// an uncertain categorical attribute. The task: predict which subscription
// tier the respondent chose.
//
// Demonstrates: uniform range pdfs, mixed numerical + categorical schemas,
// the gain-ratio measure, and probabilistic classification of a new
// respondent.
//
// Run: build/examples/survey_analysis

#include <cstdio>

#include "api/predict_session.h"
#include "api/trainer.h"
#include "common/random.h"
#include "eval/metrics.h"
#include "pdf/pdf_builder.h"
#include "table/dataset.h"
#include "tree/classify.h"

namespace {

// A respondent's true behaviour drives both the (coarse) survey answers
// and the chosen tier.
udt::Dataset SimulateSurvey(int n, int samples_per_pdf, udt::Rng* rng) {
  auto schema = udt::Schema::Create(
      {
          {"tv_hours", udt::AttributeKind::kNumerical, 0},
          {"online_hours", udt::AttributeKind::kNumerical, 0},
          {"content", udt::AttributeKind::kCategorical, 3},
      },
      {"basic", "standard", "premium"});
  UDT_CHECK(schema.ok());
  udt::Dataset ds(std::move(*schema));

  for (int i = 0; i < n; ++i) {
    int tier = i % 3;
    double tv = tier == 0   ? rng->Uniform(1.0, 10.0)
                : tier == 1 ? rng->Uniform(8.0, 20.0)
                            : rng->Uniform(16.0, 35.0);
    double online = tier == 0   ? rng->Uniform(2.0, 12.0)
                    : tier == 1 ? rng->Uniform(8.0, 25.0)
                                : rng->Uniform(15.0, 40.0);

    // Respondents answer in 3-hour buckets: the pdf is uniform over the
    // bucket that contains the true value.
    auto bucket = [&](double v) {
      double lo = 3.0 * std::floor(v / 3.0);
      return udt::MakeUniformPdf(lo, lo + 3.0, samples_per_pdf);
    };
    auto tv_pdf = bucket(tv);
    auto online_pdf = bucket(online);
    UDT_CHECK(tv_pdf.ok() && online_pdf.ok());

    // Content preference: premium skews drama (2), basic skews news (0);
    // proxy logs yield a noisy distribution around the dominant category.
    int dominant = tier == 2 ? 2 : (tier == 0 ? 0 : rng->UniformInt(3));
    std::vector<double> content(3, 0.15);
    content[static_cast<size_t>(dominant)] = 0.7;
    auto content_pdf = udt::CategoricalPdf::Create(std::move(content));
    UDT_CHECK(content_pdf.ok());

    udt::UncertainTuple t;
    t.label = tier;
    t.values.push_back(udt::UncertainValue::Numerical(std::move(*tv_pdf)));
    t.values.push_back(
        udt::UncertainValue::Numerical(std::move(*online_pdf)));
    t.values.push_back(
        udt::UncertainValue::Categorical(std::move(*content_pdf)));
    UDT_CHECK(ds.AddTuple(std::move(t)).ok());
  }
  return ds;
}

}  // namespace

int main() {
  udt::Rng rng(11);
  udt::Dataset ds = SimulateSurvey(1200, 24, &rng);
  auto [train, test] = ds.RandomSplit(0.3, &rng);

  std::printf("survey data: %d train / %d test respondents\n",
              train.num_tuples(), test.num_tuples());
  std::printf("attributes: tv_hours (uniform range pdf), online_hours "
              "(uniform range pdf), content (uncertain categorical)\n\n");

  for (udt::DispersionMeasure measure :
       {udt::DispersionMeasure::kEntropy, udt::DispersionMeasure::kGini,
        udt::DispersionMeasure::kGainRatio}) {
    udt::TreeConfig config;
    config.algorithm = udt::SplitAlgorithm::kUdtGp;
    config.measure = measure;
    udt::Trainer trainer(config);

    auto avg = trainer.TrainAveraging(train);
    auto dist = trainer.TrainUdt(train);
    UDT_CHECK(avg.ok() && dist.ok());
    udt::PredictSession avg_session(avg->Compile());
    udt::PredictSession udt_session(dist->Compile());
    std::printf("%-11s  AVG accuracy %.4f   UDT accuracy %.4f   "
                "(UDT tree: %d nodes)\n",
                udt::DispersionMeasureToString(measure),
                udt::EvaluateAccuracy(avg_session, test),
                udt::EvaluateAccuracy(udt_session, test),
                dist->tree().num_nodes());
  }

  // Classify one new respondent who answered "9-12 hours TV" and
  // "15-18 hours online" with an ambiguous content profile.
  udt::TreeConfig config;
  config.algorithm = udt::SplitAlgorithm::kUdtGp;
  auto model = udt::Trainer(config).TrainUdt(train);
  UDT_CHECK(model.ok());

  auto tv = udt::MakeUniformPdf(9.0, 12.0, 24);
  auto online = udt::MakeUniformPdf(15.0, 18.0, 24);
  auto content = udt::CategoricalPdf::Create({0.4, 0.25, 0.35});
  UDT_CHECK(tv.ok() && online.ok() && content.ok());
  udt::UncertainTuple respondent;
  respondent.label = 0;
  respondent.values.push_back(
      udt::UncertainValue::Numerical(std::move(*tv)));
  respondent.values.push_back(
      udt::UncertainValue::Numerical(std::move(*online)));
  respondent.values.push_back(
      udt::UncertainValue::Categorical(std::move(*content)));

  // Serve the new respondent through a compiled session.
  udt::PredictSession session(model->Compile());
  const std::vector<double> p = session.ClassifyDistribution(respondent);
  std::printf("\nnew respondent (TV 9-12h, online 15-18h, mixed content):\n");
  for (int c = 0; c < ds.num_classes(); ++c) {
    std::printf("  P(%-8s) = %.3f\n", ds.schema().class_name(c).c_str(),
                p[static_cast<size_t>(c)]);
  }
  std::printf("-> recommended tier: %s\n",
              ds.schema().class_name(udt::ArgMax(p)).c_str());
  return 0;
}
