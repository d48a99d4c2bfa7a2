// The mmap-native serving artifact (`.armm`, written by `acbm pack`): the
// kenlm idiom applied to the adversary model. Every number the predict
// path needs — ARIMA coefficient tables, NAR/MLP weight blocks (f64
// row-major AND the transposed f32 layout gemv_t_f32 wants), combining-tree
// split/threshold/leaf arrays, per-family and per-target history series,
// and the per-attack source-AS distributions — is laid out in typed pools
// referenced by (offset, length) records, so the file is usable in place:
// startup is mmap + header/CRC validation, zero deserialization, O(µs)
// regardless of model size.
//
// On-disk layout (all little-endian, natural C++ alignment):
//
//   FileHeader                   32 B   magic, version, endianness probe,
//                                       file size, section count, table CRC
//   SectionEntry[section_count]  32 B   id, byte offset (64-aligned), byte
//                               each    length, CRC32C of the section
//   --- 64-byte-aligned sections ---
//   kMeta          one MetaRec (counts, window_start, combiner models)
//   kPoolF64/F32/U32/I64/Chars   the typed pools every Ref points into
//   kFamilies      FamilyRec[family_count]      (family id == index)
//   kTemporalSlots TemporalSlotRec[family_count * kTemporalSeriesCount]
//   kTargets       TargetRec[target_count]      (sorted by ASN)
//   kSpatialSlots  SpatialSlotRec[target_count * kSpatialSeriesCount]
//   kMlps          MlpRec[mlp_count]            (one per NAR rung)
//   kMlpLayers     MlpLayerRec[mlp_layer_count]
//   kTreeNodes     TreeNodeRec[tree_node_count] (hour tree then day tree)
//
// A Ref is an (element offset, element count) pair into one typed pool;
// every Ref is bounds-checked once at load time (ArtifactView::parse), so
// the serving hot path does no per-access validation. Records are
// trivially copyable with explicit padding and static_asserted sizes: the
// reader casts mapped bytes directly, it never parses.
//
// Corruption surfaces as the durable.h LoadError taxonomy (kBadMagic /
// kTruncated / kBadChecksum / kVersionUnsupported / kParse) — same
// contract as the framed text artifacts, minus the copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "net/ip_space.h"
#include "trace/dataset.h"

namespace acbm::core {

class AdversaryModel;       // pipeline.h
class SpatiotemporalModel;  // spatiotemporal_model.h

namespace armm {

inline constexpr char kMagic[8] = {'A', 'C', 'B', 'M', 'M', 'M', '1', '\0'};
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kEndianCheck = 0x01020304;
inline constexpr std::size_t kSectionAlign = 64;

enum class SectionId : std::uint32_t {
  kMeta = 1,
  kPoolF64 = 2,
  kPoolF32 = 3,
  kPoolU32 = 4,
  kPoolI64 = 5,
  kPoolChars = 6,
  kFamilies = 7,
  kTemporalSlots = 8,
  kTargets = 9,
  kSpatialSlots = 10,
  kMlps = 11,
  kMlpLayers = 12,
  kTreeNodes = 13,
};
inline constexpr std::size_t kSectionCount = 13;

struct FileHeader {
  char magic[8] = {};
  std::uint32_t version = 0;
  std::uint32_t endian_check = 0;
  std::uint64_t file_size = 0;
  std::uint32_t section_count = 0;
  std::uint32_t table_crc = 0;  ///< CRC32C of the section table bytes.
};
static_assert(sizeof(FileHeader) == 32);

struct SectionEntry {
  std::uint32_t id = 0;
  std::uint32_t reserved = 0;
  std::uint64_t offset = 0;  ///< From file start; kSectionAlign-aligned.
  std::uint64_t length = 0;  ///< Bytes.
  std::uint32_t crc = 0;     ///< CRC32C of the section bytes.
  std::uint32_t reserved2 = 0;
};
static_assert(sizeof(SectionEntry) == 32);

/// (element offset, element count) into one typed pool. Which pool is
/// fixed by the field, not the Ref.
struct Ref {
  std::uint64_t off = 0;
  std::uint64_t len = 0;
};
static_assert(sizeof(Ref) == 16);

/// A fitted ARIMA(p, d, q): enough to replay ArimaModel::forecast_one
/// bit-for-bit (f64 pools) and its f32 serving counterpart (f32 pools).
struct ArimaRec {
  std::uint32_t present = 0;
  std::uint32_t d = 0;
  double intercept = 0.0;
  double sigma2 = 0.0;
  Ref phi;       ///< f64 pool.
  Ref theta;     ///< f64 pool.
  Ref phi32;     ///< f32 pool.
  Ref theta32;   ///< f32 pool.
  float intercept32 = 0.0f;
  std::uint32_t pad = 0;
};
static_assert(sizeof(ArimaRec) == 96);

/// One TemporalModel degradation slot (ARIMA -> seasonal-naive -> mean).
struct TemporalSlotRec {
  ArimaRec arima;
  std::uint64_t seasonal_period = 0;
  double fallback_mean = 0.0;
};
static_assert(sizeof(TemporalSlotRec) == 112);

/// Per-family record: the pack-time extract_family_series() output the
/// predict path reads, plus the display name. Index == family id.
struct FamilyRec {
  std::uint32_t family = 0;
  std::uint32_t has_temporal = 0;  ///< st.temporal(family) != nullptr.
  Ref name;       ///< chars pool.
  Ref magnitude;  ///< f64 pool.
  Ref hour;       ///< f64 pool.
  Ref interval;   ///< f64 pool (interval_s).
};
static_assert(sizeof(FamilyRec) == 72);

/// One MLP layer: f64 row-major [out x in] (bit-identical forward via
/// nn::forward_normalized) and the transposed f32 layout [in x out] for
/// gemv_t_f32.
struct MlpLayerRec {
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  Ref weights;      ///< f64 pool, row-major.
  Ref biases;       ///< f64 pool.
  Ref weights_t32;  ///< f32 pool, input-major (transposed).
  Ref biases32;     ///< f32 pool.
};
static_assert(sizeof(MlpLayerRec) == 80);

/// One NAR network (delays + MLP + scalers). Layers live contiguously in
/// the kMlpLayers section at [layer_off, layer_off + layer_count).
struct MlpRec {
  std::uint64_t delays = 0;
  std::uint64_t input_dim = 0;
  std::uint64_t layer_off = 0;
  std::uint64_t layer_count = 0;
  Ref in_mean;    ///< f64 pool (ZScore means).
  Ref in_sd;      ///< f64 pool (ZScore sds).
  Ref in_mean32;  ///< f32 pool.
  Ref in_sd32;    ///< f32 pool.
  double out_mean = 0.0;
  double out_sd = 1.0;
};
static_assert(sizeof(MlpRec) == 112);

/// One SpatialModel degradation slot (NAR -> AR -> mean).
struct SpatialSlotRec {
  std::uint32_t has_nar = 0;
  std::uint32_t pad = 0;
  std::uint64_t mlp_index = 0;  ///< Into kMlps; valid when has_nar.
  ArimaRec ar;                  ///< The AR rung (q == 0).
  double fallback_mean = 0.0;
};
static_assert(sizeof(SpatialSlotRec) == 120);

/// One combining-tree node (CartNode + LeafModelExport flattened). The
/// split threshold stays f64 so leaf routing matches the source tree in
/// both precisions; leaves carry both f64 and f32 linear models.
struct TreeNodeRec {
  std::int32_t left = -1;
  std::int32_t right = -1;
  std::uint32_t feature = 0;
  std::uint32_t use_linear = 0;
  double threshold = 0.0;
  double mean = 0.0;
  double intercept = 0.0;
  Ref coef;    ///< f64 pool.
  Ref coef32;  ///< f32 pool.
  float intercept32 = 0.0f;
  std::uint32_t pad = 0;
};
static_assert(sizeof(TreeNodeRec) == 80);

/// A pooled-linear combiner rung (SpatiotemporalModel::hour_fallback /
/// day_fallback), embedded in MetaRec.
struct LinearRec {
  std::uint32_t present = 0;
  std::uint32_t pad = 0;
  double intercept = 0.0;
  Ref coef;    ///< f64 pool.
  Ref coef32;  ///< f32 pool.
  float intercept32 = 0.0f;
  std::uint32_t pad2 = 0;
};
static_assert(sizeof(LinearRec) == 56);

/// Per-target record: the pack-time extract_target_series() output plus
/// per-attack metadata (family, start, source-AS distribution) and the
/// spatial share-predictor state. dist_index is a prefix array of n+1
/// element offsets (relative to dist_asn/dist_share) delimiting attack
/// a's sources as [dist_index[a], dist_index[a+1]), sorted by ASN.
struct TargetRec {
  std::uint32_t asn = 0;
  std::uint32_t has_spatial = 0;  ///< st.spatial(asn) != nullptr.
  Ref duration;       ///< f64 pool (duration_s).
  Ref interval;       ///< f64 pool (interval_s).
  Ref hour;           ///< f64 pool.
  Ref day;            ///< f64 pool.
  Ref magnitude;      ///< f64 pool.
  Ref attack_family;  ///< u32 pool, len == attack count.
  Ref attack_start;   ///< i64 pool, len == attack count.
  Ref dist_index;     ///< u32 pool, len == attack count + 1.
  Ref dist_asn;       ///< u32 pool (flattened source ASNs).
  Ref dist_share;     ///< f64 pool (parallel shares).
  Ref tracked;        ///< u32 pool (tracked ASes, fitted order).
  double share_smoothing = 0.0;
  double share_recency_blend = 0.0;
};
static_assert(sizeof(TargetRec) == 200);

struct MetaRec {
  std::int64_t window_start = 0;
  std::uint64_t magnitude_window = 0;
  std::uint64_t family_count = 0;
  std::uint64_t target_count = 0;
  std::uint64_t mlp_count = 0;
  std::uint64_t mlp_layer_count = 0;
  std::uint64_t tree_node_count = 0;
  std::uint64_t hour_tree_off = 0;    ///< Into kTreeNodes.
  std::uint64_t hour_tree_count = 0;  ///< 0 = hour tree not fitted.
  std::uint64_t day_tree_off = 0;
  std::uint64_t day_tree_count = 0;
  LinearRec hour_linear;
  LinearRec day_linear;
};
static_assert(sizeof(MetaRec) == 200);

static_assert(std::is_trivially_copyable_v<FileHeader> &&
              std::is_trivially_copyable_v<SectionEntry> &&
              std::is_trivially_copyable_v<FamilyRec> &&
              std::is_trivially_copyable_v<TemporalSlotRec> &&
              std::is_trivially_copyable_v<TargetRec> &&
              std::is_trivially_copyable_v<SpatialSlotRec> &&
              std::is_trivially_copyable_v<MlpRec> &&
              std::is_trivially_copyable_v<MlpLayerRec> &&
              std::is_trivially_copyable_v<TreeNodeRec> &&
              std::is_trivially_copyable_v<MetaRec>);

/// Validated zero-copy reader over an `.armm` image. Holds only spans into
/// the caller's buffer (a durable::MappedFile or an in-memory pack_model()
/// image) — keep that buffer alive for the view's lifetime. parse() does
/// all structural and bounds validation up front (every Ref of every
/// record is checked against its pool), so accessors are unchecked reads.
class ArtifactView {
 public:
  /// Throws durable::LoadFailure on any corruption. `verify_crc` covers
  /// the per-section CRC32C sweep (on by default; structural validation
  /// always runs). The buffer must be 8-byte aligned (mmap and heap
  /// allocations both are).
  [[nodiscard]] static ArtifactView parse(std::string_view data,
                                          bool verify_crc = true);

  [[nodiscard]] const MetaRec& meta() const noexcept { return *meta_; }
  [[nodiscard]] std::span<const FamilyRec> families() const noexcept {
    return families_;
  }
  [[nodiscard]] std::span<const TemporalSlotRec> temporal_slots()
      const noexcept {
    return temporal_slots_;
  }
  [[nodiscard]] std::span<const TargetRec> targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] std::span<const SpatialSlotRec> spatial_slots()
      const noexcept {
    return spatial_slots_;
  }
  [[nodiscard]] std::span<const MlpRec> mlps() const noexcept { return mlps_; }
  [[nodiscard]] std::span<const MlpLayerRec> mlp_layers() const noexcept {
    return mlp_layers_;
  }
  [[nodiscard]] std::span<const TreeNodeRec> tree_nodes() const noexcept {
    return tree_nodes_;
  }

  /// Family record by id (== index); nullptr when out of range.
  [[nodiscard]] const FamilyRec* family(std::uint32_t id) const noexcept {
    return id < families_.size() ? &families_[id] : nullptr;
  }
  /// Target record by ASN (binary search); nullptr when never attacked.
  [[nodiscard]] const TargetRec* target(net::Asn asn) const noexcept;
  /// Index of a target record within targets() (for slot lookup).
  [[nodiscard]] std::size_t target_index(const TargetRec& rec) const noexcept {
    return static_cast<std::size_t>(&rec - targets_.data());
  }

  // Typed pool reads (unchecked: parse() validated every stored Ref).
  [[nodiscard]] std::span<const double> f64(Ref ref) const noexcept {
    return pool_f64_.subspan(ref.off, ref.len);
  }
  [[nodiscard]] std::span<const float> f32(Ref ref) const noexcept {
    return pool_f32_.subspan(ref.off, ref.len);
  }
  [[nodiscard]] std::span<const std::uint32_t> u32(Ref ref) const noexcept {
    return pool_u32_.subspan(ref.off, ref.len);
  }
  [[nodiscard]] std::span<const std::int64_t> i64(Ref ref) const noexcept {
    return pool_i64_.subspan(ref.off, ref.len);
  }
  [[nodiscard]] std::string_view chars(Ref ref) const noexcept {
    return std::string_view(pool_chars_.data() + ref.off,
                            static_cast<std::size_t>(ref.len));
  }

 private:
  const MetaRec* meta_ = nullptr;
  std::span<const FamilyRec> families_;
  std::span<const TemporalSlotRec> temporal_slots_;
  std::span<const TargetRec> targets_;
  std::span<const SpatialSlotRec> spatial_slots_;
  std::span<const MlpRec> mlps_;
  std::span<const MlpLayerRec> mlp_layers_;
  std::span<const TreeNodeRec> tree_nodes_;
  std::span<const double> pool_f64_;
  std::span<const float> pool_f32_;
  std::span<const std::uint32_t> pool_u32_;
  std::span<const std::int64_t> pool_i64_;
  std::span<const char> pool_chars_;
};

/// Serializes a fitted (or loaded) AdversaryModel into a complete `.armm`
/// file image. Everything predict_next_attack touches at query time is
/// precomputed here with the exact same functions the f64 path uses
/// (extract_family_series / extract_target_series /
/// source_asn_distribution), so serving never needs the dataset or IP map.
/// Throws std::logic_error when the model is not fitted.
[[nodiscard]] std::string pack_model(const AdversaryModel& model);

/// The same image from a fitted spatiotemporal model and the dataset and
/// IP map it was fitted on (the AdversaryModel overload forwards here).
/// evaluate_timestamps packs its train-split model this way to score the
/// f32 columns through ServingModel.
[[nodiscard]] std::string pack_model(const SpatiotemporalModel& st,
                                     const trace::Dataset& dataset,
                                     const net::IpToAsnMap& ip_map,
                                     std::size_t magnitude_window);

}  // namespace armm
}  // namespace acbm::core
