// Shared, immutable cache of extracted feature series for one dataset.
// Feature extraction (features.h) walks every attack of a family or target
// per call, and the fitting pipeline historically re-extracted the same
// series in each stage: the temporal stage per family, the spatial stage
// per target, and row assembly for the combining tree re-extracting both.
// A FeatureCache computes each series once and hands out shared_ptrs to the
// immutable result, so the three stages share one extraction pass.
//
// Thread-safety contract: family()/target() are safe to call concurrently
// from any thread (the fitting stages fan out over families/targets).
// Entries are built outside the lock and inserted first-writer-wins; a
// losing duplicate build is byte-identical to the winner because
// extraction is a pure function of the dataset, so concurrency never
// changes results. hits()/misses() are approximate under concurrency
// (each is read under the lock, but a racing miss may be counted before
// its entry lands). When observability is enabled (core/observe.h) every
// lookup also bumps the global feature_cache.hit / feature_cache.miss
// counters.
//
// The cache also owns the dataset's SourceTable (every bot resolved to its
// AS once), built on first use by sources(): the spatial stage reads its
// tracked source ASes from it, and family series their A^s once it is
// built (before that, a family extraction resolves only that family's
// bots, so a worker fitting one family's stage resolves no other).
// Nothing builds it before a reader asks, so a fit whose stages all
// resume from a checkpoint resolves no bot.
//
// Invalidation contract: the cache holds references to the dataset/IP map
// it was built over and must not outlive them. If the underlying dataset
// mutates, call invalidate() while no other thread is using the cache —
// it drops every cached series and the source table, but shared_ptrs
// already handed out stay valid (they keep the old extraction alive and go
// stale, by design).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "core/features.h"

namespace acbm::core {

class FeatureCache {
 public:
  /// `distance` may be null (unit inter-AS distance), matching
  /// extract_family_series; it applies to every family extraction served
  /// by this cache.
  FeatureCache(const trace::Dataset& dataset, const net::IpToAsnMap& ip_map,
               net::ValleyFreeDistance* distance = nullptr)
      : dataset_(dataset), ip_map_(ip_map), distance_(distance) {}

  FeatureCache(const FeatureCache&) = delete;
  FeatureCache& operator=(const FeatureCache&) = delete;

  /// The family series for `family`, extracting on first use.
  [[nodiscard]] std::shared_ptr<const FamilySeries> family(
      std::uint32_t family);

  /// The target series for `asn`, extracting on first use.
  [[nodiscard]] std::shared_ptr<const TargetSeries> target(net::Asn asn);

  /// Every attack's bots resolved to ASes, built on first use. The build
  /// fans out over the thread pool, so ask for it before a fan-out whose
  /// tasks read it: a first call from a pool worker builds serially.
  [[nodiscard]] std::shared_ptr<const SourceTable> sources();

  /// Drops every cached series and the source table (e.g. if the
  /// underlying dataset mutated). Outstanding shared_ptrs stay valid.
  void invalidate();

  [[nodiscard]] std::size_t hits() const;
  [[nodiscard]] std::size_t misses() const;

 private:
  const trace::Dataset& dataset_;
  const net::IpToAsnMap& ip_map_;
  net::ValleyFreeDistance* distance_;

  std::unique_ptr<std::once_flag> sources_once_ =
      std::make_unique<std::once_flag>();
  std::shared_ptr<const SourceTable> sources_;  ///< Set under mutex_.

  mutable std::mutex mutex_;
  std::map<std::uint32_t, std::shared_ptr<const FamilySeries>> families_;
  std::map<net::Asn, std::shared_ptr<const TargetSeries>> targets_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace acbm::core
