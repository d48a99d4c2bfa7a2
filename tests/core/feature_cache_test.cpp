// FeatureCache: cached series must be identical to direct extraction, hits
// and misses must be accounted, and concurrent access must agree.
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_cache.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "trace/world.h"

namespace {

using acbm::core::FeatureCache;

class FeatureCacheTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new acbm::trace::World(
        acbm::trace::build_world(acbm::trace::small_world_options(77)));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static acbm::trace::World* world_;
};

acbm::trace::World* FeatureCacheTest::world_ = nullptr;

TEST_F(FeatureCacheTest, FamilySeriesMatchesDirectExtraction) {
  FeatureCache cache(world_->dataset, world_->ip_map);
  const auto n_families =
      static_cast<std::uint32_t>(world_->dataset.family_names().size());
  ASSERT_GT(n_families, 0u);
  for (std::uint32_t f = 0; f < n_families; ++f) {
    const auto cached = cache.family(f);
    const acbm::core::FamilySeries direct = acbm::core::extract_family_series(
        world_->dataset, f, world_->ip_map, nullptr);
    ASSERT_EQ(cached->attack_indices, direct.attack_indices);
    ASSERT_EQ(cached->magnitude, direct.magnitude);
    ASSERT_EQ(cached->activity, direct.activity);
    ASSERT_EQ(cached->norm_magnitude, direct.norm_magnitude);
    ASSERT_EQ(cached->source_coeff, direct.source_coeff);
    ASSERT_EQ(cached->interval_s, direct.interval_s);
    ASSERT_EQ(cached->hour, direct.hour);
    ASSERT_EQ(cached->day, direct.day);
    ASSERT_EQ(cached->duration_s, direct.duration_s);
  }
  EXPECT_EQ(cache.misses(), n_families);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST_F(FeatureCacheTest, TargetSeriesHitOnSecondAccess) {
  FeatureCache cache(world_->dataset, world_->ip_map);
  const std::vector<acbm::net::Asn> targets = world_->dataset.target_asns();
  ASSERT_FALSE(targets.empty());
  const auto first = cache.target(targets.front());
  const auto second = cache.target(targets.front());
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);

  const acbm::core::TargetSeries direct =
      acbm::core::extract_target_series(world_->dataset, targets.front());
  EXPECT_EQ(first->asn, direct.asn);
  EXPECT_EQ(first->attack_indices, direct.attack_indices);
  EXPECT_EQ(first->duration_s, direct.duration_s);
  EXPECT_EQ(first->interval_s, direct.interval_s);
  EXPECT_EQ(first->hour, direct.hour);
  EXPECT_EQ(first->day, direct.day);
  EXPECT_EQ(first->magnitude, direct.magnitude);
}

TEST_F(FeatureCacheTest, InvalidateKeepsOutstandingPointersValid) {
  FeatureCache cache(world_->dataset, world_->ip_map);
  const auto held = cache.family(0);
  const std::size_t n = held->attack_indices.size();
  cache.invalidate();
  EXPECT_EQ(held->attack_indices.size(), n);  // Still alive via shared_ptr.
  (void)cache.family(0);
  EXPECT_EQ(cache.misses(), 2u);  // Re-extracted after invalidation.
}

TEST_F(FeatureCacheTest, ConcurrentAccessAgreesWithSerial) {
  // Same fan-out shape as the fitting stages: every task asks for every
  // family; all tasks must observe identical series.
  FeatureCache cache(world_->dataset, world_->ip_map);
  const auto n_families =
      static_cast<std::uint32_t>(world_->dataset.family_names().size());
  const std::vector<std::size_t> sizes = acbm::core::parallel_map(
      static_cast<std::size_t>(n_families), [&](std::size_t f) {
        return cache.family(static_cast<std::uint32_t>(f))
            ->attack_indices.size();
      });
  for (std::uint32_t f = 0; f < n_families; ++f) {
    const acbm::core::FamilySeries direct = acbm::core::extract_family_series(
        world_->dataset, f, world_->ip_map, nullptr);
    EXPECT_EQ(sizes[f], direct.attack_indices.size());
  }
}

TEST_F(FeatureCacheTest, FamilyBeforeTheTableResolvesOnlyItsOwnBots) {
  // A worker fitting one family's stage asks for no table; its series
  // resolves that family's bots alone and matches the table-backed one.
  namespace observe = acbm::core::observe;
  struct ObserveGuard {
    ObserveGuard() {
      observe::Metrics::instance().reset();
      observe::set_enabled(true);
    }
    ~ObserveGuard() {
      observe::set_enabled(false);
      observe::Metrics::instance().reset();
    }
  } guard;
  const auto tables_built = [] {
    return observe::Metrics::instance().counter_value(
        "feature_cache.sources_built");
  };
  const auto n_families =
      static_cast<std::uint32_t>(world_->dataset.family_names().size());
  FeatureCache lone(world_->dataset, world_->ip_map);
  FeatureCache shared(world_->dataset, world_->ip_map);
  for (std::uint32_t f = 0; f < n_families; ++f) (void)lone.family(f);
  EXPECT_EQ(tables_built(), 0u);
  (void)shared.sources();
  EXPECT_EQ(tables_built(), 1u);
  for (std::uint32_t f = 0; f < n_families; ++f) {
    EXPECT_EQ(lone.family(f)->source_coeff, shared.family(f)->source_coeff)
        << "family " << f;
  }
  EXPECT_EQ(tables_built(), 1u);
}

}  // namespace
