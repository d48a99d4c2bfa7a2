#include "core/artifact_map.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/durable.h"
#include "core/features.h"
#include "core/observe.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/spatial_model.h"
#include "core/spatiotemporal_model.h"
#include "core/temporal_model.h"
#include "nn/mlp.h"
#include "nn/nar.h"
#include "stats/descriptive.h"
#include "stats/ols.h"
#include "tree/cart.h"
#include "tree/model_tree.h"
#include "ts/arima.h"
#include "ts/arma.h"

namespace acbm::core::armm {

namespace {

using durable::LoadError;
using durable::LoadFailure;

[[nodiscard]] LoadFailure corrupt(LoadError code, const std::string& detail) {
  return LoadFailure(code, "armm: " + detail);
}

// --- pack_model builder ------------------------------------------------------

/// Accumulates the typed pools and record arrays, then assembles the
/// aligned, CRC'd file image.
class Builder {
 public:
  Ref put_f64(std::span<const double> xs) {
    const Ref ref{f64_.size(), xs.size()};
    f64_.insert(f64_.end(), xs.begin(), xs.end());
    return ref;
  }
  Ref put_f32(std::span<const float> xs) {
    const Ref ref{f32_.size(), xs.size()};
    f32_.insert(f32_.end(), xs.begin(), xs.end());
    return ref;
  }
  /// Single-rounding down-conversion of an f64 span into the f32 pool.
  Ref put_f64_as_f32(std::span<const double> xs) {
    const Ref ref{f32_.size(), xs.size()};
    f32_.reserve(f32_.size() + xs.size());
    for (double v : xs) f32_.push_back(static_cast<float>(v));
    return ref;
  }
  Ref put_u32(std::span<const std::uint32_t> xs) {
    const Ref ref{u32_.size(), xs.size()};
    u32_.insert(u32_.end(), xs.begin(), xs.end());
    return ref;
  }
  Ref put_i64(std::span<const std::int64_t> xs) {
    const Ref ref{i64_.size(), xs.size()};
    i64_.insert(i64_.end(), xs.begin(), xs.end());
    return ref;
  }
  Ref put_chars(std::string_view text) {
    const Ref ref{chars_.size(), text.size()};
    chars_ += text;
    return ref;
  }

  ArimaRec put_arima(const ts::ArimaModel& model) {
    const ts::ArmaModel& arma = model.arma();
    ArimaRec rec;
    rec.present = 1;
    rec.d = static_cast<std::uint32_t>(model.order().d);
    rec.intercept = arma.intercept();
    rec.sigma2 = arma.sigma2();
    rec.phi = put_f64(arma.phi());
    rec.theta = put_f64(arma.theta());
    rec.phi32 = put_f64_as_f32(arma.phi());
    rec.theta32 = put_f64_as_f32(arma.theta());
    rec.intercept32 = static_cast<float>(arma.intercept());
    return rec;
  }

  /// Appends a NAR's MLP (layers + scalers, both precisions) and returns
  /// its index in the kMlps section.
  std::uint64_t put_nar(const nn::NarModel& nar) {
    const nn::Mlp& mlp = nar.network();
    MlpRec rec;
    rec.delays = nar.delays();
    rec.input_dim = mlp.input_dim();
    rec.layer_off = layers_.size();
    const std::vector<nn::MlpLayerView> views = mlp.layer_views();
    rec.layer_count = views.size();
    for (const nn::MlpLayerView& v : views) {
      MlpLayerRec layer;
      layer.in = v.in;
      layer.out = v.out;
      layer.weights = put_f64(v.weights);
      layer.biases = put_f64(v.biases);
      // Transposed f32 [in x out], the layout gemv_t_f32 wants on the
      // serving f32 path.
      const Ref wt{f32_.size(), v.weights.size()};
      f32_.reserve(f32_.size() + v.weights.size());
      for (std::size_t i = 0; i < v.in; ++i) {
        for (std::size_t o = 0; o < v.out; ++o) {
          f32_.push_back(static_cast<float>(v.weights[o * v.in + i]));
        }
      }
      layer.weights_t32 = wt;
      layer.biases32 = put_f64_as_f32(v.biases);
      layers_.push_back(layer);
    }
    std::vector<double> means;
    std::vector<double> sds;
    means.reserve(mlp.input_scalers().size());
    sds.reserve(mlp.input_scalers().size());
    for (const stats::ZScore& z : mlp.input_scalers()) {
      means.push_back(z.mean);
      sds.push_back(z.sd);
    }
    rec.in_mean = put_f64(means);
    rec.in_sd = put_f64(sds);
    rec.in_mean32 = put_f64_as_f32(means);
    rec.in_sd32 = put_f64_as_f32(sds);
    rec.out_mean = mlp.output_scaler().mean;
    rec.out_sd = mlp.output_scaler().sd;
    mlps_.push_back(rec);
    return mlps_.size() - 1;
  }

  /// Appends a fitted ModelTree's nodes and returns (offset, count) in the
  /// kTreeNodes section; (0, 0) when not fitted.
  std::pair<std::uint64_t, std::uint64_t> put_tree(
      const tree::ModelTree& tree) {
    if (!tree.fitted()) return {0, 0};
    const std::uint64_t off = tree_nodes_.size();
    const std::vector<tree::CartNode>& nodes = tree.structure().nodes();
    const std::vector<tree::LeafModelExport> models =
        tree.export_leaf_models();
    for (std::size_t id = 0; id < nodes.size(); ++id) {
      TreeNodeRec rec;
      rec.left = nodes[id].left;
      rec.right = nodes[id].right;
      rec.feature = static_cast<std::uint32_t>(nodes[id].feature);
      rec.threshold = nodes[id].threshold;
      rec.mean = models[id].mean;
      if (models[id].use_linear) {
        rec.use_linear = 1;
        rec.intercept = models[id].intercept;
        rec.intercept32 = static_cast<float>(models[id].intercept);
        rec.coef = put_f64(models[id].coefficients);
        rec.coef32 = put_f64_as_f32(models[id].coefficients);
      }
      tree_nodes_.push_back(rec);
    }
    return {off, nodes.size()};
  }

  LinearRec put_linear(const std::optional<stats::LinearRegression>& reg) {
    LinearRec rec;
    if (!reg || !reg->fitted()) return rec;
    rec.present = 1;
    rec.intercept = reg->intercept();
    rec.intercept32 = static_cast<float>(reg->intercept());
    rec.coef = put_f64(reg->coefficients());
    rec.coef32 = put_f64_as_f32(reg->coefficients());
    return rec;
  }

  std::vector<FamilyRec> families;
  std::vector<TemporalSlotRec> temporal_slots;
  std::vector<TargetRec> targets;
  std::vector<SpatialSlotRec> spatial_slots;
  MetaRec meta;

  [[nodiscard]] std::string assemble();

  [[nodiscard]] std::size_t mlp_count() const noexcept { return mlps_.size(); }
  [[nodiscard]] std::size_t mlp_layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] std::size_t tree_node_count() const noexcept {
    return tree_nodes_.size();
  }

 private:
  std::vector<double> f64_;
  std::vector<float> f32_;
  std::vector<std::uint32_t> u32_;
  std::vector<std::int64_t> i64_;
  std::string chars_;
  std::vector<MlpRec> mlps_;
  std::vector<MlpLayerRec> layers_;
  std::vector<TreeNodeRec> tree_nodes_;
};

template <typename T>
[[nodiscard]] std::string_view bytes_of(const std::vector<T>& xs) {
  return {reinterpret_cast<const char*>(xs.data()), xs.size() * sizeof(T)};
}

std::string Builder::assemble() {
  struct Section {
    SectionId id;
    std::string_view bytes;
  };
  const std::string_view meta_bytes{reinterpret_cast<const char*>(&meta),
                                    sizeof(MetaRec)};
  const Section sections[kSectionCount] = {
      {SectionId::kMeta, meta_bytes},
      {SectionId::kPoolF64, bytes_of(f64_)},
      {SectionId::kPoolF32, bytes_of(f32_)},
      {SectionId::kPoolU32, bytes_of(u32_)},
      {SectionId::kPoolI64, bytes_of(i64_)},
      {SectionId::kPoolChars, std::string_view(chars_)},
      {SectionId::kFamilies, bytes_of(families)},
      {SectionId::kTemporalSlots, bytes_of(temporal_slots)},
      {SectionId::kTargets, bytes_of(targets)},
      {SectionId::kSpatialSlots, bytes_of(spatial_slots)},
      {SectionId::kMlps, bytes_of(mlps_)},
      {SectionId::kMlpLayers, bytes_of(layers_)},
      {SectionId::kTreeNodes, bytes_of(tree_nodes_)},
  };

  const auto align = [](std::size_t off) {
    return (off + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
  };
  std::size_t offset = align(sizeof(FileHeader) +
                             kSectionCount * sizeof(SectionEntry));
  std::vector<SectionEntry> table(kSectionCount);
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    table[s].id = static_cast<std::uint32_t>(sections[s].id);
    table[s].offset = offset;
    table[s].length = sections[s].bytes.size();
    table[s].crc = durable::crc32c(sections[s].bytes);
    offset = align(offset + sections[s].bytes.size());
  }
  const std::size_t file_size = offset;

  FileHeader header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kFormatVersion;
  header.endian_check = kEndianCheck;
  header.file_size = file_size;
  header.section_count = kSectionCount;
  header.table_crc = durable::crc32c(bytes_of(table));

  std::string out(file_size, '\0');
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + sizeof(header), table.data(),
              table.size() * sizeof(SectionEntry));
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    std::memcpy(out.data() + table[s].offset, sections[s].bytes.data(),
                sections[s].bytes.size());
  }
  return out;
}

}  // namespace

std::string pack_model(const AdversaryModel& model) {
  if (!model.fitted()) {
    throw std::logic_error("pack_model: model not fitted");
  }
  return pack_model(model.spatiotemporal(), model.dataset(), model.ip_map(),
                    model.options().magnitude_window);
}

std::string pack_model(const SpatiotemporalModel& st,
                       const trace::Dataset& dataset,
                       const net::IpToAsnMap& ip_map,
                       std::size_t magnitude_window) {
  if (!st.fitted()) {
    throw std::logic_error("pack_model: model not fitted");
  }
  Builder b;

  // Families: the exact per-family series predict_next_attack extracts at
  // query time, precomputed once here with the same function.
  const std::size_t family_count = dataset.family_names().size();
  for (std::size_t f = 0; f < family_count; ++f) {
    const auto family = static_cast<std::uint32_t>(f);
    const FamilySeries series = extract_family_series(dataset, family);
    FamilyRec rec;
    rec.family = family;
    rec.name = b.put_chars(dataset.family_names()[f]);
    rec.magnitude = b.put_f64(series.magnitude);
    rec.hour = b.put_f64(series.hour);
    rec.interval = b.put_f64(series.interval_s);
    const TemporalModel* tm = st.temporal(family);
    rec.has_temporal = tm != nullptr ? 1 : 0;
    for (std::size_t s = 0; s < kTemporalSeriesCount; ++s) {
      TemporalSlotRec slot;
      if (tm != nullptr) {
        const auto which = static_cast<TemporalSeries>(s);
        slot.seasonal_period = tm->seasonal_period(which);
        slot.fallback_mean = tm->fallback_mean(which);
        if (tm->model(which)) slot.arima = b.put_arima(*tm->model(which));
      }
      b.temporal_slots.push_back(slot);
    }
    b.families.push_back(rec);
  }

  // Targets, sorted by ASN for binary search at serve time. Every bot is
  // resolved once up front; each target's series and per-attack metadata
  // are then built on the pool and appended in ASN order, so the image is
  // the same at any thread count.
  SourceTable sources;
  {
    ACBM_SPAN("pack.sources");
    sources = SourceTable(dataset, ip_map);
  }
  std::set<net::Asn> asn_set;
  for (const trace::Attack& attack : dataset.attacks()) {
    asn_set.insert(attack.target_asn);
  }
  const std::vector<net::Asn> asns(asn_set.begin(), asn_set.end());
  struct TargetData {
    TargetSeries series;
    std::vector<std::uint32_t> fams;
    std::vector<std::int64_t> starts;
    std::vector<std::uint32_t> dist_index{0};
    std::vector<std::uint32_t> dist_asn;
    std::vector<double> dist_share;
  };
  const std::vector<TargetData> target_data =
      parallel_map(asns.size(), [&](std::size_t t) {
        TargetData data;
        data.series = extract_target_series(dataset, asns[t]);
        // Per-attack metadata in chronological order: family and start for
        // the dominant-family vote and the future-timestamp guard, and the
        // source distribution history the share predictor consumes.
        for (std::size_t idx : data.series.attack_indices) {
          const trace::Attack& attack = dataset.attacks()[idx];
          data.fams.push_back(attack.family);
          data.starts.push_back(attack.start);
          const AttackSources row = sources[idx];
          for (std::size_t i = 0; i < row.asns.size(); ++i) {
            data.dist_asn.push_back(row.asns[i]);
            data.dist_share.push_back(row.share(i));
          }
          data.dist_index.push_back(
              static_cast<std::uint32_t>(data.dist_asn.size()));
        }
        return data;
      });
  for (std::size_t t = 0; t < asns.size(); ++t) {
    const net::Asn asn = asns[t];
    const TargetData& data = target_data[t];
    TargetRec rec;
    rec.asn = asn;
    rec.duration = b.put_f64(data.series.duration_s);
    rec.interval = b.put_f64(data.series.interval_s);
    rec.hour = b.put_f64(data.series.hour);
    rec.day = b.put_f64(data.series.day);
    rec.magnitude = b.put_f64(data.series.magnitude);
    rec.attack_family = b.put_u32(data.fams);
    rec.attack_start = b.put_i64(data.starts);
    rec.dist_index = b.put_u32(data.dist_index);
    rec.dist_asn = b.put_u32(data.dist_asn);
    rec.dist_share = b.put_f64(data.dist_share);

    const SpatialModel* sm = st.spatial(asn);
    rec.has_spatial = sm != nullptr ? 1 : 0;
    if (sm != nullptr) {
      rec.tracked = b.put_u32(sm->tracked_ases());
      rec.share_smoothing = sm->share_smoothing();
      rec.share_recency_blend = sm->share_recency_blend();
    }
    for (std::size_t s = 0; s < kSpatialSeriesCount; ++s) {
      SpatialSlotRec slot;
      if (sm != nullptr) {
        const auto which = static_cast<SpatialSeries>(s);
        slot.fallback_mean = sm->fallback_mean(which);
        if (sm->nar(which)) {
          slot.has_nar = 1;
          slot.mlp_index = b.put_nar(*sm->nar(which));
        }
        if (sm->ar(which)) slot.ar = b.put_arima(*sm->ar(which));
      }
      b.spatial_slots.push_back(slot);
    }
    b.targets.push_back(rec);
  }

  std::tie(b.meta.hour_tree_off, b.meta.hour_tree_count) =
      b.put_tree(st.hour_tree());
  std::tie(b.meta.day_tree_off, b.meta.day_tree_count) =
      b.put_tree(st.day_tree());
  b.meta.hour_linear = b.put_linear(st.hour_fallback());
  b.meta.day_linear = b.put_linear(st.day_fallback());

  b.meta.window_start = dataset.window_start();
  b.meta.magnitude_window = magnitude_window;
  b.meta.family_count = family_count;
  b.meta.target_count = b.targets.size();
  b.meta.mlp_count = b.mlp_count();
  b.meta.mlp_layer_count = b.mlp_layer_count();
  b.meta.tree_node_count = b.tree_node_count();
  return b.assemble();
}

// --- ArtifactView::parse -----------------------------------------------------

namespace {

template <typename T>
std::span<const T> section_span(std::string_view data,
                                const SectionEntry& entry, const char* what) {
  if (entry.length % sizeof(T) != 0) {
    throw corrupt(LoadError::kParse,
                  std::string(what) + " section length " +
                      std::to_string(entry.length) +
                      " is not a multiple of the record size");
  }
  return {reinterpret_cast<const T*>(data.data() + entry.offset),
          static_cast<std::size_t>(entry.length / sizeof(T))};
}

void check_ref(Ref ref, std::size_t pool_len, const char* what) {
  if (ref.off > pool_len || ref.len > pool_len - ref.off) {
    throw corrupt(LoadError::kParse,
                  std::string(what) + " ref [" + std::to_string(ref.off) +
                      ", +" + std::to_string(ref.len) +
                      ") exceeds its pool of " + std::to_string(pool_len));
  }
}

void check_arima(const ArimaRec& rec, std::size_t f64_len, std::size_t f32_len,
                 const char* what) {
  if (rec.present == 0) return;
  check_ref(rec.phi, f64_len, what);
  check_ref(rec.theta, f64_len, what);
  check_ref(rec.phi32, f32_len, what);
  check_ref(rec.theta32, f32_len, what);
  if (rec.phi32.len != rec.phi.len || rec.theta32.len != rec.theta.len) {
    throw corrupt(LoadError::kParse,
                  std::string(what) + " f32 coefficient count mismatch");
  }
}

void check_linear(const LinearRec& rec, std::size_t f64_len,
                  std::size_t f32_len, const char* what) {
  if (rec.present == 0) return;
  check_ref(rec.coef, f64_len, what);
  check_ref(rec.coef32, f32_len, what);
  if (rec.coef32.len != rec.coef.len) {
    throw corrupt(LoadError::kParse,
                  std::string(what) + " f32 coefficient count mismatch");
  }
}

}  // namespace

const TargetRec* ArtifactView::target(net::Asn asn) const noexcept {
  const auto it = std::lower_bound(
      targets_.begin(), targets_.end(), asn,
      [](const TargetRec& rec, net::Asn key) { return rec.asn < key; });
  if (it == targets_.end() || it->asn != asn) return nullptr;
  return &*it;
}

ArtifactView ArtifactView::parse(std::string_view data, bool verify_crc) {
  if (reinterpret_cast<std::uintptr_t>(data.data()) % alignof(double) != 0) {
    throw corrupt(LoadError::kParse, "image buffer is not 8-byte aligned");
  }
  if (data.size() < sizeof(FileHeader)) {
    throw corrupt(LoadError::kTruncated,
                  "file smaller than the " +
                      std::to_string(sizeof(FileHeader)) + "-byte header");
  }
  FileHeader header;
  std::memcpy(&header, data.data(), sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    throw corrupt(LoadError::kBadMagic, "not an .armm artifact (bad magic)");
  }
  if (header.version != kFormatVersion) {
    throw corrupt(LoadError::kVersionUnsupported,
                  "format v" + std::to_string(header.version) +
                      " is not the supported v" +
                      std::to_string(kFormatVersion));
  }
  if (header.endian_check != kEndianCheck) {
    throw corrupt(LoadError::kParse,
                  "endianness mismatch (artifact written on a different "
                  "architecture)");
  }
  if (header.file_size > data.size()) {
    throw corrupt(LoadError::kTruncated,
                  "header promises " + std::to_string(header.file_size) +
                      " bytes, file has " + std::to_string(data.size()));
  }
  if (header.file_size < data.size()) {
    throw corrupt(LoadError::kParse,
                  std::to_string(data.size() - header.file_size) +
                      " trailing byte(s) after the image");
  }
  if (header.section_count != kSectionCount) {
    throw corrupt(LoadError::kParse,
                  "expected " + std::to_string(kSectionCount) +
                      " sections, header declares " +
                      std::to_string(header.section_count));
  }
  const std::size_t table_bytes = kSectionCount * sizeof(SectionEntry);
  if (data.size() < sizeof(FileHeader) + table_bytes) {
    throw corrupt(LoadError::kTruncated, "section table truncated");
  }
  const std::string_view table_view =
      data.substr(sizeof(FileHeader), table_bytes);
  if (durable::crc32c(table_view) != header.table_crc) {
    throw corrupt(LoadError::kBadChecksum, "section table CRC mismatch");
  }
  SectionEntry table[kSectionCount];
  std::memcpy(table, table_view.data(), table_bytes);

  const SectionEntry* by_id[kSectionCount + 1] = {};
  for (const SectionEntry& entry : table) {
    if (entry.offset % kSectionAlign != 0) {
      throw corrupt(LoadError::kParse,
                    "section " + std::to_string(entry.id) +
                        " offset is not 64-byte aligned");
    }
    if (entry.offset > data.size() ||
        entry.length > data.size() - entry.offset) {
      throw corrupt(LoadError::kTruncated,
                    "section " + std::to_string(entry.id) +
                        " extends past end of file");
    }
    if (entry.id < 1 || entry.id > kSectionCount) {
      throw corrupt(LoadError::kParse,
                    "unknown section id " + std::to_string(entry.id));
    }
    if (by_id[entry.id] != nullptr) {
      throw corrupt(LoadError::kParse,
                    "duplicate section id " + std::to_string(entry.id));
    }
    by_id[entry.id] = &entry;
    if (verify_crc &&
        durable::crc32c(data.substr(entry.offset, entry.length)) !=
            entry.crc) {
      throw corrupt(LoadError::kBadChecksum,
                    "section " + std::to_string(entry.id) + " CRC mismatch");
    }
  }
  const auto section = [&](SectionId id) -> const SectionEntry& {
    return *by_id[static_cast<std::uint32_t>(id)];
  };

  ArtifactView view;
  const SectionEntry& meta_entry = section(SectionId::kMeta);
  if (meta_entry.length != sizeof(MetaRec)) {
    throw corrupt(LoadError::kParse, "meta section has the wrong size");
  }
  view.meta_ = reinterpret_cast<const MetaRec*>(data.data() +
                                                meta_entry.offset);
  view.pool_f64_ = section_span<double>(data, section(SectionId::kPoolF64),
                                        "f64 pool");
  view.pool_f32_ = section_span<float>(data, section(SectionId::kPoolF32),
                                       "f32 pool");
  view.pool_u32_ = section_span<std::uint32_t>(
      data, section(SectionId::kPoolU32), "u32 pool");
  view.pool_i64_ = section_span<std::int64_t>(
      data, section(SectionId::kPoolI64), "i64 pool");
  view.pool_chars_ = std::span<const char>(
      data.data() + section(SectionId::kPoolChars).offset,
      static_cast<std::size_t>(section(SectionId::kPoolChars).length));
  view.families_ = section_span<FamilyRec>(data, section(SectionId::kFamilies),
                                           "families");
  view.temporal_slots_ = section_span<TemporalSlotRec>(
      data, section(SectionId::kTemporalSlots), "temporal slots");
  view.targets_ = section_span<TargetRec>(data, section(SectionId::kTargets),
                                          "targets");
  view.spatial_slots_ = section_span<SpatialSlotRec>(
      data, section(SectionId::kSpatialSlots), "spatial slots");
  view.mlps_ = section_span<MlpRec>(data, section(SectionId::kMlps), "mlps");
  view.mlp_layers_ = section_span<MlpLayerRec>(
      data, section(SectionId::kMlpLayers), "mlp layers");
  view.tree_nodes_ = section_span<TreeNodeRec>(
      data, section(SectionId::kTreeNodes), "tree nodes");

  // Structural validation: counts and every stored Ref, so the serving hot
  // path never bounds-checks.
  const MetaRec& meta = *view.meta_;
  const std::size_t nf64 = view.pool_f64_.size();
  const std::size_t nf32 = view.pool_f32_.size();
  const std::size_t nu32 = view.pool_u32_.size();
  const std::size_t ni64 = view.pool_i64_.size();
  const std::size_t nchars = view.pool_chars_.size();
  if (view.families_.size() != meta.family_count ||
      view.temporal_slots_.size() != meta.family_count * kTemporalSeriesCount ||
      view.targets_.size() != meta.target_count ||
      view.spatial_slots_.size() != meta.target_count * kSpatialSeriesCount ||
      view.mlps_.size() != meta.mlp_count ||
      view.mlp_layers_.size() != meta.mlp_layer_count ||
      view.tree_nodes_.size() != meta.tree_node_count) {
    throw corrupt(LoadError::kParse,
                  "record counts disagree with the meta section");
  }

  for (std::size_t f = 0; f < view.families_.size(); ++f) {
    const FamilyRec& rec = view.families_[f];
    if (rec.family != f) {
      throw corrupt(LoadError::kParse, "family ids are not contiguous");
    }
    check_ref(rec.name, nchars, "family name");
    check_ref(rec.magnitude, nf64, "family magnitude");
    check_ref(rec.hour, nf64, "family hour");
    check_ref(rec.interval, nf64, "family interval");
  }
  for (const TemporalSlotRec& slot : view.temporal_slots_) {
    check_arima(slot.arima, nf64, nf32, "temporal arima");
  }
  for (std::size_t t = 0; t < view.targets_.size(); ++t) {
    const TargetRec& rec = view.targets_[t];
    if (t > 0 && view.targets_[t - 1].asn >= rec.asn) {
      throw corrupt(LoadError::kParse, "targets are not sorted by ASN");
    }
    const std::uint64_t n = rec.attack_family.len;
    if (n == 0 || rec.attack_start.len != n || rec.duration.len != n ||
        rec.interval.len != n || rec.hour.len != n || rec.day.len != n ||
        rec.magnitude.len != n || rec.dist_index.len != n + 1) {
      throw corrupt(LoadError::kParse,
                    "target series lengths disagree for AS" +
                        std::to_string(rec.asn));
    }
    check_ref(rec.duration, nf64, "target duration");
    check_ref(rec.interval, nf64, "target interval");
    check_ref(rec.hour, nf64, "target hour");
    check_ref(rec.day, nf64, "target day");
    check_ref(rec.magnitude, nf64, "target magnitude");
    check_ref(rec.attack_family, nu32, "target attack families");
    check_ref(rec.attack_start, ni64, "target attack starts");
    check_ref(rec.dist_index, nu32, "target dist index");
    check_ref(rec.dist_asn, nu32, "target dist asns");
    check_ref(rec.dist_share, nf64, "target dist shares");
    check_ref(rec.tracked, nu32, "target tracked ases");
    if (rec.dist_share.len != rec.dist_asn.len) {
      throw corrupt(LoadError::kParse, "dist share/asn length mismatch");
    }
    const std::span<const std::uint32_t> index = view.u32(rec.dist_index);
    for (std::size_t i = 0; i < index.size(); ++i) {
      if (index[i] > rec.dist_asn.len || (i > 0 && index[i] < index[i - 1])) {
        throw corrupt(LoadError::kParse, "dist index is not a prefix array");
      }
    }
    if (index.back() != rec.dist_asn.len) {
      throw corrupt(LoadError::kParse, "dist index does not cover the pool");
    }
    for (std::uint32_t fam : view.u32(rec.attack_family)) {
      if (fam >= meta.family_count) {
        throw corrupt(LoadError::kParse, "attack family id out of range");
      }
    }
  }
  for (const SpatialSlotRec& slot : view.spatial_slots_) {
    if (slot.has_nar != 0 && slot.mlp_index >= meta.mlp_count) {
      throw corrupt(LoadError::kParse, "spatial slot mlp index out of range");
    }
    check_arima(slot.ar, nf64, nf32, "spatial ar");
  }
  for (const MlpRec& mlp : view.mlps_) {
    if (mlp.layer_off > meta.mlp_layer_count ||
        mlp.layer_count > meta.mlp_layer_count - mlp.layer_off ||
        mlp.layer_count == 0) {
      throw corrupt(LoadError::kParse, "mlp layer range out of bounds");
    }
    if (mlp.layer_count != 2) {
      throw corrupt(LoadError::kParse, "mlp is not one hidden layer");
    }
    if (mlp.in_mean.len != mlp.input_dim || mlp.in_sd.len != mlp.input_dim ||
        mlp.in_mean32.len != mlp.input_dim ||
        mlp.in_sd32.len != mlp.input_dim || mlp.delays != mlp.input_dim) {
      throw corrupt(LoadError::kParse, "mlp scaler/delay dims disagree");
    }
    check_ref(mlp.in_mean, nf64, "mlp in_mean");
    check_ref(mlp.in_sd, nf64, "mlp in_sd");
    check_ref(mlp.in_mean32, nf32, "mlp in_mean32");
    check_ref(mlp.in_sd32, nf32, "mlp in_sd32");
    std::uint64_t width = mlp.input_dim;
    for (std::uint64_t l = 0; l < mlp.layer_count; ++l) {
      const MlpLayerRec& layer = view.mlp_layers_[mlp.layer_off + l];
      if (layer.in != width ||
          layer.weights.len != layer.in * layer.out ||
          layer.biases.len != layer.out ||
          layer.weights_t32.len != layer.weights.len ||
          layer.biases32.len != layer.out) {
        throw corrupt(LoadError::kParse, "mlp layer dims disagree");
      }
      check_ref(layer.weights, nf64, "mlp weights");
      check_ref(layer.biases, nf64, "mlp biases");
      check_ref(layer.weights_t32, nf32, "mlp weights_t32");
      check_ref(layer.biases32, nf32, "mlp biases32");
      width = layer.out;
    }
    if (width != 1) {
      throw corrupt(LoadError::kParse, "mlp final layer width is not 1");
    }
  }
  const auto check_tree = [&](std::uint64_t off, std::uint64_t count,
                              const char* what) {
    if (off > meta.tree_node_count ||
        count > meta.tree_node_count - off) {
      throw corrupt(LoadError::kParse,
                    std::string(what) + " node range out of bounds");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      const TreeNodeRec& node = view.tree_nodes_[off + i];
      const bool leaf = node.left < 0;
      if (leaf != (node.right < 0) ||
          (!leaf && (static_cast<std::uint64_t>(node.left) >= count ||
                     static_cast<std::uint64_t>(node.right) >= count))) {
        throw corrupt(LoadError::kParse,
                      std::string(what) + " child index out of range");
      }
      if (node.use_linear != 0) {
        check_ref(node.coef, nf64, "tree coef");
        check_ref(node.coef32, nf32, "tree coef32");
        if (node.coef32.len != node.coef.len) {
          throw corrupt(LoadError::kParse, "tree f32 coef count mismatch");
        }
      }
    }
    if (count > 0) {
      // The walk starts at relative node 0; an empty tree means "not
      // fitted", never a zero-node walk.
      const TreeNodeRec& root = view.tree_nodes_[off];
      (void)root;
    }
  };
  check_tree(meta.hour_tree_off, meta.hour_tree_count, "hour tree");
  check_tree(meta.day_tree_off, meta.day_tree_count, "day tree");
  check_linear(meta.hour_linear, nf64, nf32, "hour linear");
  check_linear(meta.day_linear, nf64, nf32, "day linear");
  return view;
}

}  // namespace acbm::core::armm
