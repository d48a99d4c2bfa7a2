#include "core/feature_cache.h"

#include <utility>

#include "core/observe.h"

namespace acbm::core {

std::shared_ptr<const FamilySeries> FeatureCache::family(
    std::uint32_t family) {
  std::shared_ptr<const SourceTable> table;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = families_.find(family);
    if (it != families_.end()) {
      ++hits_;
      ACBM_COUNT("feature_cache.hit", 1);
      return it->second;
    }
    ++misses_;
    table = sources_;
  }
  ACBM_COUNT("feature_cache.miss", 1);
  // Without the whole table (no reader asked for it yet) only this
  // family's bots are resolved; the rows, and so A^s, are the same.
  auto built = std::make_shared<const FamilySeries>(
      table ? extract_family_series(dataset_, family, *table, ip_map_,
                                    distance_)
            : extract_family_series(dataset_, family, ip_map_, distance_));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = families_.emplace(family, std::move(built));
  return it->second;
}

std::shared_ptr<const TargetSeries> FeatureCache::target(net::Asn asn) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = targets_.find(asn);
    if (it != targets_.end()) {
      ++hits_;
      ACBM_COUNT("feature_cache.hit", 1);
      return it->second;
    }
    ++misses_;
  }
  ACBM_COUNT("feature_cache.miss", 1);
  auto built = std::make_shared<const TargetSeries>(
      extract_target_series(dataset_, asn));
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = targets_.emplace(asn, std::move(built));
  return it->second;
}

std::shared_ptr<const SourceTable> FeatureCache::sources() {
  std::call_once(*sources_once_, [this] {
    ACBM_SPAN("fit.sources");
    ACBM_COUNT("feature_cache.sources_built", 1);
    auto built = std::make_shared<const SourceTable>(dataset_, ip_map_);
    const std::lock_guard<std::mutex> lock(mutex_);
    sources_ = std::move(built);
  });
  return sources_;
}

void FeatureCache::invalidate() {
  const std::lock_guard<std::mutex> lock(mutex_);
  families_.clear();
  targets_.clear();
  sources_once_ = std::make_unique<std::once_flag>();
  sources_.reset();
}

std::size_t FeatureCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t FeatureCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace acbm::core
