#include "core/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/artifact_map.h"
#include "core/durable.h"
#include "core/features.h"
#include "core/pipeline.h"
#include "core/spatial_model.h"
#include "nn/grid_search.h"
#include "stats/rng.h"
#include "trace/world.h"

namespace acbm::core {
namespace {

// Restores automatic thread resolution when a test returns or throws, so a
// failing test cannot leak its thread-count override into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { set_num_threads(0); }
};

TEST(ThreadPool, StartupAndShutdown) {
  for (std::size_t threads : {1u, 2u, 7u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    std::atomic<std::size_t> hits{0};
    pool.for_each_index(0, 100, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 100u);
  }
  // Zero is clamped to one worker.
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> visits(1000, 0);
  pool.for_each_index(0, visits.size(),
                      [&](std::size_t i) { visits[i] += 1; }, 16);
  for (std::size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(3);
  std::atomic<std::size_t> hits{0};
  pool.for_each_index(5, 5, [&](std::size_t) { hits.fetch_add(1); });
  pool.for_each_index(0, 0, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0u);
}

TEST(ThreadPool, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_each_index(0, 256,
                          [](std::size_t i) {
                            if (i == 97) {
                              throw std::runtime_error("boom at 97");
                            }
                          }),
      std::runtime_error);
  // The pool survives a throwing batch and accepts new work.
  std::atomic<std::size_t> hits{0};
  pool.for_each_index(0, 10, [&](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 10u);
}

TEST(ParallelFor, NestedFanOutFallsBackToSerial) {
  ThreadCountGuard guard;
  set_num_threads(4);
  std::vector<double> sums(8, 0.0);
  parallel_for(0, sums.size(), [&](std::size_t outer) {
    EXPECT_TRUE(ThreadPool::on_worker_thread());
    // Nested call: must run inline on this worker without deadlocking.
    parallel_for(0, 100, [&](std::size_t inner) {
      sums[outer] += static_cast<double>(inner);
    });
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, 4950.0);
}

TEST(ParallelFor, ExceptionPropagatesThroughSharedPool) {
  ThreadCountGuard guard;
  for (std::size_t threads : {1u, 4u}) {
    set_num_threads(threads);
    EXPECT_THROW(parallel_for(0, 64,
                              [](std::size_t i) {
                                if (i == 13) {
                                  throw std::invalid_argument("bad index");
                                }
                              }),
                 std::invalid_argument);
  }
}

TEST(ParallelMap, ResultsAreIndexOrdered) {
  ThreadCountGuard guard;
  for (std::size_t threads : {1u, 3u, 8u}) {
    set_num_threads(threads);
    const std::vector<std::size_t> out =
        parallel_map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ParallelRuntime, EnvVariableSetsThreadCount) {
  ThreadCountGuard guard;
  set_num_threads(0);
  ASSERT_EQ(setenv("ACBM_THREADS", "5", 1), 0);
  EXPECT_EQ(num_threads(), 5u);
  // An explicit override beats the environment.
  set_num_threads(2);
  EXPECT_EQ(num_threads(), 2u);
  ASSERT_EQ(unsetenv("ACBM_THREADS"), 0);
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1u);
}

// --- Serial-vs-parallel bit-identity -------------------------------------
//
// The determinism contract: the same inputs produce byte-identical outputs
// at every thread count. Each test runs the serial path (1 thread) and two
// parallel widths and compares exactly — no tolerances.

std::vector<double> synthetic_series(std::size_t n) {
  stats::Rng rng(7);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = std::sin(0.31 * static_cast<double>(i)) + 0.1 * rng.normal();
  }
  return xs;
}

TEST(ParallelDeterminism, NarGridSearchBitIdentical) {
  ThreadCountGuard guard;
  const std::vector<double> series = synthetic_series(80);
  nn::NarGridOptions opts;
  opts.delay_grid = {1, 2, 3};
  opts.hidden_grid = {2, 4};
  opts.mlp.max_epochs = 60;

  std::vector<std::string> saved;
  std::vector<double> rmse;
  for (std::size_t threads : {1u, 3u, 8u}) {
    set_num_threads(threads);
    const auto result = nn::nar_grid_search(series, opts);
    ASSERT_TRUE(result.has_value()) << threads << " threads";
    std::ostringstream os;
    result->model.save(os);
    saved.push_back(os.str());
    rmse.push_back(result->validation_rmse);
  }
  EXPECT_EQ(saved[1], saved[0]);
  EXPECT_EQ(saved[2], saved[0]);
  EXPECT_EQ(rmse[1], rmse[0]);
  EXPECT_EQ(rmse[2], rmse[0]);
}

TEST(ParallelDeterminism, SpatialFitBitIdentical) {
  ThreadCountGuard guard;
  const trace::World world = trace::build_world(trace::small_world_options(23));
  const net::Asn busiest = world.dataset.target_asns().front();
  const TargetSeries series = extract_target_series(world.dataset, busiest);

  SpatialModelOptions opts;
  opts.grid_search = false;  // Grid determinism is covered above; keep fast.
  opts.fixed.mlp.max_epochs = 60;

  std::vector<std::string> saved;
  for (std::size_t threads : {1u, 3u, 8u}) {
    set_num_threads(threads);
    SpatialModel model(opts);
    model.fit(series, SourceTable(world.dataset, world.ip_map,
                                  series.attack_indices));
    ASSERT_TRUE(model.fitted());
    std::ostringstream os;
    model.save(os);
    saved.push_back(os.str());
  }
  EXPECT_EQ(saved[1], saved[0]);
  EXPECT_EQ(saved[2], saved[0]);
}

TEST(ParallelDeterminism, PackModelImageBitIdentical) {
  ThreadCountGuard guard;
  const trace::World world = trace::build_world(trace::small_world_options(23));
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  AdversaryModel model(opts);
  model.fit(world.dataset, world.ip_map);

  // pack_model builds the per-target records on the pool.
  std::vector<std::string> images;
  for (std::size_t threads : {1u, 3u, 8u}) {
    set_num_threads(threads);
    images.push_back(armm::pack_model(model));
  }
  EXPECT_EQ(images[1], images[0]);
  EXPECT_EQ(images[2], images[0]);
}

TEST(ParallelDeterminism, FaultedSpatialFitBitIdentical) {
  // Fault injection composes with the determinism contract: faults are keyed
  // by fault-point name, not RNG draws or execution order, so a faulted fit
  // (forced NAR retry on every series) is byte-identical at every width.
  ThreadCountGuard guard;
  struct FaultGuard {
    ~FaultGuard() { FaultInjector::instance().clear(); }
  } fault_guard;
  FaultInjector::instance().configure("nar.nonconvergence:attempt=0");

  const trace::World world = trace::build_world(trace::small_world_options(23));
  const net::Asn busiest = world.dataset.target_asns().front();
  const TargetSeries series = extract_target_series(world.dataset, busiest);

  SpatialModelOptions opts;
  opts.grid_search = false;
  opts.fixed.mlp.max_epochs = 60;

  std::vector<std::string> saved;
  std::vector<std::string> reports;
  for (std::size_t threads : {1u, 3u, 8u}) {
    set_num_threads(threads);
    SpatialModel model(opts);
    model.fit(series, SourceTable(world.dataset, world.ip_map,
                                  series.attack_indices));
    ASSERT_TRUE(model.fitted());
    EXPECT_EQ(model.rung(SpatialSeries::kDuration), FitRung::kNarRetry);
    std::ostringstream os;
    model.save(os);
    saved.push_back(os.str());
    std::ostringstream ro;
    model.fit_report().write(ro);
    reports.push_back(ro.str());
  }
  EXPECT_EQ(saved[1], saved[0]);
  EXPECT_EQ(saved[2], saved[0]);
  EXPECT_EQ(reports[1], reports[0]);
  EXPECT_EQ(reports[2], reports[0]);
}

/// Asserts that two datasets hold the same attacks, field by field.
void expect_same_attacks(const trace::Dataset& base,
                         const trace::Dataset& other) {
  ASSERT_EQ(other.attacks().size(), base.attacks().size());
  for (std::size_t i = 0; i < base.attacks().size(); ++i) {
    const trace::Attack& a = base.attacks()[i];
    const trace::Attack& b = other.attacks()[i];
    ASSERT_EQ(b.id, a.id) << "attack " << i;
    ASSERT_EQ(b.family, a.family) << "attack " << i;
    ASSERT_EQ(b.target_ip.value, a.target_ip.value) << "attack " << i;
    ASSERT_EQ(b.target_asn, a.target_asn) << "attack " << i;
    ASSERT_EQ(b.start, a.start) << "attack " << i;
    ASSERT_EQ(b.duration_s, a.duration_s) << "attack " << i;
    ASSERT_EQ(b.bots.size(), a.bots.size()) << "attack " << i;
    for (std::size_t k = 0; k < a.bots.size(); ++k) {
      ASSERT_EQ(b.bots[k].value, a.bots[k].value)
          << "attack " << i << " bot " << k;
    }
  }
}

TEST(ParallelDeterminism, BuildWorldBitIdentical) {
  ThreadCountGuard guard;
  std::vector<trace::World> worlds;
  for (std::size_t threads : {1u, 3u, 8u}) {
    set_num_threads(threads);
    worlds.push_back(trace::build_world(trace::small_world_options(31)));
  }
  const auto& base = worlds[0].dataset;
  for (std::size_t w = 1; w < worlds.size(); ++w) {
    const auto& other = worlds[w].dataset;
    expect_same_attacks(base, other);
    ASSERT_EQ(other.snapshots().size(), base.snapshots().size());
    for (std::size_t i = 0; i < base.snapshots().size(); ++i) {
      ASSERT_EQ(other.snapshots()[i].ts, base.snapshots()[i].ts);
      ASSERT_EQ(other.snapshots()[i].family, base.snapshots()[i].family);
      ASSERT_EQ(other.snapshots()[i].active_bots,
                base.snapshots()[i].active_bots);
    }
  }
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) out += part;
  return out;
}

TEST(ParallelDeterminism, DatasetCsvCodecBitIdentical) {
  // The trace codec formats and parses a text at or above kCsvParallelFloor
  // in chunks on the pool, and the binary codec copies the bots of such a
  // block in chunks; the bytes and the attacks must not depend on the
  // thread count.
  ThreadCountGuard guard;
  const trace::World world = trace::build_world(trace::small_world_options(23));
  set_num_threads(1);
  std::string serial;
  ASSERT_EQ(world.dataset.append_csv(serial), 3 + world.dataset.size());
  ASSERT_GE(serial.size(), 4 * trace::kCsvParallelFloor);  // Multi-MB.
  expect_same_attacks(world.dataset, trace::Dataset::load_csv(serial));

  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 20;
  AdversaryModel model(opts);
  model.fit(world.dataset, world.ip_map);
  const std::string serial_body = join(model.body_parts());
  const std::string serial_binary = join(world.dataset.binary_parts());
  ASSERT_GE(serial_binary.size(), 2 * trace::kCsvParallelFloor);

  for (std::size_t threads : {1u, 3u, 8u}) {
    set_num_threads(threads);
    const std::vector<std::string> parts = world.dataset.csv_parts();
    // The header, then one part per chunk.
    EXPECT_EQ(parts.size(), threads + 1) << threads << " threads";
    EXPECT_EQ(join(parts), serial) << threads << " threads";
    std::string appended = "prefix";
    EXPECT_EQ(world.dataset.append_csv(appended), 3 + world.dataset.size());
    EXPECT_EQ(appended, "prefix" + serial) << threads << " threads";
    expect_same_attacks(world.dataset, trace::Dataset::load_csv(serial));

    // The binary block: its records, then one part of bots per chunk.
    const std::vector<std::string> binary = world.dataset.binary_parts();
    EXPECT_EQ(binary.size(), threads + 1) << threads << " threads";
    EXPECT_TRUE(join(binary) == serial_binary) << threads << " threads";
    // The body: its head, the binary block's parts, the IP map.
    const std::vector<std::string> body_parts = model.body_parts();
    EXPECT_EQ(body_parts.size(), binary.size() + 2);
    EXPECT_TRUE(join(body_parts) == serial_body) << threads << " threads";
    std::ostringstream framed;
    model.save_framed(framed);
    EXPECT_TRUE(framed.str() ==
                durable::frame_payload("adversary_model",
                                       AdversaryModel::kFormatVersion,
                                       serial_body))
        << threads << " threads";
  }
}

/// load_csv's error message for `text` at `threads` threads ("" if none).
std::string load_error(const std::string& text, std::size_t threads) {
  set_num_threads(threads);
  try {
    (void)trace::Dataset::load_csv(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Dataset, LoadCsvParallelErrorsMatchSerial) {
  // A chunked parse must report the error a serial scan would: the first
  // bad row of the whole text, with its line number in the whole text.
  ThreadCountGuard guard;
  const trace::World world = trace::build_world(trace::small_world_options(23));
  std::string full;
  world.dataset.append_csv(full);
  // About 3 MB of whole rows: above the floor, cheap under sanitizers.
  const std::string csv = full.substr(0, full.find('\n', 3'000'000) + 1);
  ASSERT_GE(csv.size(), 2 * trace::kCsvParallelFloor);
  std::size_t rows_at = 0;
  for (int i = 0; i < 3; ++i) rows_at = csv.find('\n', rows_at) + 1;
  const std::string_view rows = std::string_view(csv).substr(rows_at);
  // Line number of the line holding byte `pos`, and that line's start.
  const auto line_of = [&csv](std::size_t pos) {
    const std::string_view before = std::string_view(csv).substr(0, pos);
    return 1 + static_cast<std::size_t>(
                   std::count(before.begin(), before.end(), '\n'));
  };
  const auto line_start = [&csv](std::size_t pos) {
    return csv.rfind('\n', pos - 1) + 1;
  };
  // Byte of the row text that holds the cut split_lines aims at after
  // chunk 0 of `threads` chunks.
  const auto first_cut = [&](std::size_t threads) {
    return rows_at + rows.size() / threads;
  };
  // An id field that is not a number; the row keeps its length.
  const auto bad_id = [&](std::string text, std::size_t pos) {
    text[line_start(pos)] = 'x';
    return text;
  };

  struct Case {
    std::string name;
    std::string text;
    std::size_t line = 0;  ///< Line the error must name (0: no line).
  };
  std::vector<Case> cases;
  cases.push_back({"last chunk", bad_id(csv, csv.size() - 2),
                   line_of(csv.size() - 2)});
  const std::size_t in_second = rows_at + rows.size() / 2;
  const std::size_t in_third = rows_at + rows.size() * 5 / 6;
  cases.push_back({"two chunks", bad_id(bad_id(csv, in_third), in_second),
                   line_of(in_second)});
  for (std::size_t threads : {3u, 8u}) {
    const std::size_t cut = first_cut(threads);
    cases.push_back({"bad row at cut " + std::to_string(threads),
                     bad_id(csv, cut), line_of(cut)});
    // The row ending at the chunk boundary runs on into the next row: its
    // newline becomes a bot separator, so the next row's id is a bad
    // address in the middle of one long row.
    std::string merged = csv;
    merged[csv.find('\n', cut)] = ';';
    cases.push_back({"row across cut " + std::to_string(threads),
                     std::move(merged), line_of(cut)});
  }
  cases.push_back({"no final newline", csv.substr(0, csv.size() - 1), 0});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string serial = load_error(c.text, 1);
    ASSERT_FALSE(serial.empty());
    if (c.line > 0) {
      EXPECT_NE(serial.find("line " + std::to_string(c.line) + ": "),
                std::string::npos)
          << serial;
    }
    for (std::size_t threads : {2u, 3u, 8u}) {
      EXPECT_EQ(load_error(c.text, threads), serial) << threads << " threads";
    }
  }
  // The boundary cases really sit on a chunk boundary: the bad row is the
  // last row of the first chunk.
  for (std::size_t threads : {3u, 8u}) {
    const std::string text = bad_id(csv, first_cut(threads));
    const std::vector<std::string_view> pieces =
        trace::split_lines(std::string_view(text).substr(rows_at), threads);
    ASSERT_EQ(pieces.size(), threads);
    const std::string_view first = pieces.front();
    const std::size_t last_row = first.rfind('\n', first.size() - 2) + 1;
    EXPECT_EQ(first[last_row], 'x') << threads << " threads";
  }
}

TEST(Dataset, SplitLinesKeepsWholeLines) {
  EXPECT_TRUE(trace::split_lines("", 4).empty());
  const std::string text = "a\nbb\nccc\ndddd\n";
  for (std::size_t parts : {1u, 2u, 3u, 4u, 9u}) {
    const std::vector<std::string_view> pieces =
        trace::split_lines(text, parts);
    ASSERT_LE(pieces.size(), parts);
    std::string joined;
    for (std::string_view piece : pieces) {
      ASSERT_FALSE(piece.empty());
      EXPECT_EQ(piece.back(), '\n');
      joined += piece;
    }
    EXPECT_EQ(joined, text) << parts << " parts";
  }
  // A last line without its newline ends the last piece.
  const std::vector<std::string_view> cut = trace::split_lines("a\nb", 2);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut[1], "b");
}

TEST(ParallelDeterminism, RngSubstreamsAreOrderIndependent) {
  const stats::Rng parent(42);
  stats::Rng a = parent.substream(3);
  stats::Rng a_again = parent.substream(3);
  EXPECT_EQ(a.uniform_int(0, 1'000'000'000),
            a_again.uniform_int(0, 1'000'000'000));
  // Distinct substreams diverge.
  stats::Rng a2 = parent.substream(3);
  stats::Rng b2 = parent.substream(9);
  EXPECT_NE(a2.uniform_int(0, 1'000'000'000),
            b2.uniform_int(0, 1'000'000'000));
}

}  // namespace
}  // namespace acbm::core
