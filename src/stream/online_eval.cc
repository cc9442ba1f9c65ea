#include "stream/online_eval.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <utility>

#include "core/metric_registry.h"
#include "core/seed.h"
#include "forecast/registry.h"

namespace lossyts::stream {

namespace {

/// Rolling mean absolute error over the last `window` scored points, with a
/// running minimum (the pre-drift floor the adapt metric compares against).
class RollingMae {
 public:
  explicit RollingMae(size_t window) : window_(std::max<size_t>(window, 1)) {}

  void Add(double abs_error) {
    errors_.push_back(abs_error);
    sum_ += abs_error;
    if (errors_.size() > window_) {
      sum_ -= errors_.front();
      errors_.pop_front();
    }
    if (errors_.size() == window_) {
      const double v = Value();
      if (!(v >= floor_)) floor_ = v;  // Also replaces the initial NaN.
      has_floor_ = true;
    }
  }

  bool full() const { return errors_.size() == window_; }
  double Value() const {
    return errors_.empty()
               ? 0.0
               : sum_ / static_cast<double>(errors_.size());
  }
  bool has_floor() const { return has_floor_; }
  double floor_value() const { return floor_; }

 private:
  size_t window_;
  std::deque<double> errors_;
  double sum_ = 0.0;
  double floor_ = std::numeric_limits<double>::quiet_NaN();
  bool has_floor_ = false;
};

}  // namespace

Result<OnlineEvalResult> RunOnlineEval(const TimeSeries& series,
                                       const OnlineEvalOptions& options) {
  if (series.empty()) {
    return Status::InvalidArgument("cannot run the online loop on an empty "
                                   "series");
  }
  Result<std::vector<std::string>> metric_names =
      CanonicalMetricNames(options.metrics);
  if (!metric_names.ok()) return metric_names.status();

  Result<std::unique_ptr<StreamingCompressor>> compressor =
      MakeStreamingCompressor(options.codec);
  if (!compressor.ok()) return compressor.status();
  if (Status s = (*compressor)
                     ->Open(series.start_timestamp(),
                            series.interval_seconds(), options.error_bound);
      !s.ok()) {
    return s;
  }

  SegmentDriftDetector detector(options.drift);
  SegmentFeatureTracker tracker(options.feature_segment_window,
                                options.feature_value_window);

  OnlineEvalResult result;
  result.metric_names = *metric_names;

  const std::vector<double>& v = series.values();
  const size_t input_length = options.forecast.input_length;

  // The model-visible signal: reconstruction of all closed segments. The
  // still-open window is covered by the codec's O(1) provisional model, so
  // the full model-visible prefix at point i always has exactly i values.
  std::vector<double> recon;
  recon.reserve(v.size());

  std::unique_ptr<forecast::Forecaster> model;
  uint64_t fit_count = 0;

  // Fits (and refits) the model on the reconstruction tail with an
  // identity-derived seed; `end` is the number of model-visible points.
  auto fit_model = [&](size_t end) -> Status {
    forecast::ForecastConfig config = options.forecast;
    config.seed = TagSeed(options.seed, options.series_label + "|" +
                                            options.model + "|" +
                                            options.codec + "|retrain" +
                                            std::to_string(fit_count));
    Result<std::unique_ptr<forecast::Forecaster>> made =
        forecast::MakeForecaster(options.model, config);
    if (!made.ok()) return made.status();
    const size_t train_len = std::min(options.retrain_window, end);
    const size_t begin = end - train_len;
    std::vector<double> train_values;
    train_values.reserve(train_len);
    const compress::SegmentModel prov = (*compressor)->Provisional();
    for (size_t k = begin; k < end; ++k) {
      train_values.push_back(k < recon.size()
                                 ? recon[k]
                                 : prov.ValueAt(k - recon.size()));
    }
    TimeSeries train(series.TimestampAt(begin), series.interval_seconds(),
                     std::move(train_values));
    if (Status s = (*made)->Fit(train, TimeSeries()); !s.ok()) return s;
    model = std::move(*made);
    ++fit_count;
    return Status::OK();
  };

  std::vector<double> actuals;
  std::vector<double> predictions;
  std::vector<double> window(input_length);

  RollingMae rolling(options.rolling_window);
  bool adapt_pending = false;
  double adapt_target = 0.0;
  size_t pending_retrain = 0;  // Index into result.retrains.

  std::vector<StreamSegment> closed;
  std::vector<size_t> alarms_now;

  for (size_t i = 0; i < v.size(); ++i) {
    // Prequential: score the arriving point before the codec or the model
    // sees it. The input window is the last input_length model-visible
    // values — closed reconstruction plus the provisional open window.
    if (model != nullptr && i >= input_length) {
      const compress::SegmentModel prov = (*compressor)->Provisional();
      for (size_t k = i - input_length; k < i; ++k) {
        window[k - (i - input_length)] =
            k < recon.size() ? recon[k] : prov.ValueAt(k - recon.size());
      }
      Result<std::vector<double>> forecasted = model->Predict(window);
      if (!forecasted.ok()) return forecasted.status();
      const double predicted = forecasted->empty() ? 0.0 : (*forecasted)[0];
      actuals.push_back(v[i]);
      predictions.push_back(predicted);
      rolling.Add(std::abs(v[i] - predicted));
      if (adapt_pending && rolling.full() &&
          rolling.Value() <= adapt_target) {
        RetrainEvent& event = result.retrains[pending_retrain];
        event.adapt_points = i - event.retrain_index;
        event.adapted = true;
        adapt_pending = false;
      }
    }

    // Ingest: stream the raw point, route closed segments to the detector,
    // the feature tracker and the reconstruction.
    closed.clear();
    alarms_now.clear();
    if (Status s = (*compressor)->Append(v[i], &closed); !s.ok()) return s;
    for (const StreamSegment& segment : closed) {
      detector.OnSegment(segment, &alarms_now);
      tracker.OnSegment(segment);
      for (size_t k = 0; k < segment.length; ++k) {
        recon.push_back(segment.ValueAt(k));
      }
    }

    if (model == nullptr && i + 1 >= options.initial_train) {
      if (Status s = fit_model(i + 1); !s.ok()) return s;
    }

    for (const size_t alarm : alarms_now) result.alarms.push_back(alarm);
    if (!alarms_now.empty() && options.retrain_on_drift &&
        model != nullptr) {
      // One refit per arriving point, at the first alarm of the batch. A
      // still-unrecovered earlier retrain is closed out as not adapted.
      if (adapt_pending) {
        RetrainEvent& event = result.retrains[pending_retrain];
        event.adapt_points = i - event.retrain_index;
        event.adapted = false;
        adapt_pending = false;
      }
      if (Status s = fit_model(i + 1); !s.ok()) return s;
      RetrainEvent event;
      event.alarm_index = alarms_now.front();
      event.retrain_index = i;
      result.retrains.push_back(event);
      if (rolling.has_floor()) {
        adapt_pending = true;
        adapt_target = options.adapt_factor * rolling.floor_value();
        pending_retrain = result.retrains.size() - 1;
      }
    }
  }

  // End of stream: final segments still count for drift and features.
  closed.clear();
  alarms_now.clear();
  Result<std::vector<uint8_t>> blob = (*compressor)->Flush(&closed);
  if (!blob.ok()) return blob.status();
  for (const StreamSegment& segment : closed) {
    detector.OnSegment(segment, &alarms_now);
    tracker.OnSegment(segment);
  }
  if (Status s = detector.Finish(&alarms_now);
      !s.ok() && s.code() != StatusCode::kFailedPrecondition) {
    // FailedPrecondition = stream shorter than the CUSUM warm-up: benign.
    return s;
  }
  for (const size_t alarm : alarms_now) result.alarms.push_back(alarm);

  if (adapt_pending) {
    RetrainEvent& event = result.retrains[pending_retrain];
    event.adapt_points = v.size() - event.retrain_index;
    event.adapted = false;
  }

  result.points = v.size();
  result.segments = (*compressor)->segments();
  result.scored = actuals.size();
  result.fits = fit_count;
  result.blob = std::move(*blob);
  result.features = tracker.Summary();
  if (Result<std::vector<double>> acf = tracker.RollingAcf(8); acf.ok()) {
    result.rolling_acf = std::move(*acf);
  }

  if (!actuals.empty()) {
    MetricContext ctx;
    ctx.actual = &actuals;
    ctx.predicted = &predictions;
    ctx.insample = &recon;
    ctx.season_length =
        std::max<int>(1, static_cast<int>(options.forecast.season_length));
    ctx.series = options.series_label;
    Result<std::vector<double>> values =
        EvaluateMetrics(result.metric_names, ctx);
    if (!values.ok()) return values.status();
    result.metric_values = std::move(*values);
  }
  return result;
}

}  // namespace lossyts::stream
