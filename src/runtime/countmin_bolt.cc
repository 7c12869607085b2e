#include "runtime/countmin_bolt.h"

namespace spear {

namespace {

ExactWindowedBoltConfig CountMinConfig(WindowSpec window,
                                       ValueExtractor value_extractor,
                                       KeyExtractor key_extractor) {
  SPEAR_CHECK(static_cast<bool>(key_extractor));
  ExactWindowedBoltConfig config;
  config.window = window;
  config.aggregate = AggregateSpec::Mean();
  config.value_extractor = std::move(value_extractor);
  config.key_extractor = std::move(key_extractor);
  return config;
}

}  // namespace

CountMinWindowedBolt::CountMinWindowedBolt(WindowSpec window,
                                           ValueExtractor value_extractor,
                                           KeyExtractor key_extractor,
                                           double epsilon, double confidence)
    : ExactWindowedBolt(CountMinConfig(window, std::move(value_extractor),
                                       std::move(key_extractor))),
      epsilon_(epsilon),
      delta_(1.0 - confidence) {}

Result<WindowResult> CountMinWindowedBolt::Produce(
    const CompleteWindow& window, std::size_t* memory_bytes) {
  SPEAR_ASSIGN_OR_RETURN(CountMinGroupedAggregator agg,
                         CountMinGroupedAggregator::Make(epsilon_, delta_));
  // One pass through the window: every tuple pays 2*depth hashes.
  for (const Tuple& t : window.tuples) {
    agg.Update(config_.key_extractor(t), config_.value_extractor(t));
  }
  WindowResult result;
  result.bounds = window.bounds;
  result.window_size = window.tuples.size();
  result.tuples_processed = window.tuples.size();
  result.is_grouped = true;
  result.approximate = true;
  result.estimated_error = epsilon_;
  for (const std::string& key : agg.Keys()) {
    result.groups.emplace_back(key, agg.EstimateMean(key));
  }
  *memory_bytes = agg.MemoryBytes();
  return result;
}

}  // namespace spear
