// Daemon tests: protocol robustness (garbage, truncation, oversize,
// slow-loris, mid-response disconnect), batching/coalescing, LRU
// eviction, generation hot-swap under concurrent load at 1/4/16 worker
// threads with zero lost requests, and the pack/serve/query CLI surface
// (query output byte-identical to the batch predict CLI).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <thread>

#include "cli/cli.h"
#include "core/durable.h"
#include "core/pipeline.h"
#include "core/server.h"
#include "core/serving.h"
#include "trace/world.h"

namespace acbm::core::serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("acbm_serve_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

SpatiotemporalOptions fast_options() {
  SpatiotemporalOptions opts;
  opts.spatial.grid_search = false;
  opts.spatial.fixed.mlp.max_epochs = 60;
  return opts;
}

/// One fitted model, saved in both formats, shared by every test (the
/// fixture leaks deliberately, fitting dominates runtime; its directory is
/// removed by FixtureCleanup once the tests are done).
struct Fixture {
  TempDir* dir = new TempDir();
  trace::World world = trace::build_world(trace::small_world_options(37));
  AdversaryModel model{fast_options()};
  ServingModel serving;
  fs::path armm_path;
  fs::path art_path;

  Fixture() {
    model.fit(world.dataset, world.ip_map);
    serving = ServingModel::from_image(armm::pack_model(model));
    armm_path = dir->path / "model.armm";
    art_path = dir->path / "model.art";
    durable::atomic_write_file(armm_path, serving.image());
    std::ofstream out(art_path, std::ios::binary);
    model.save_framed(out);
  }
};

const Fixture* g_fixture = nullptr;

const Fixture& fx() {
  static const Fixture* fixture = g_fixture = new Fixture();
  return *fixture;
}

/// Removes the shared fixture's directory (two model artifacts) when the
/// test process finishes, so no run leaves it behind in the temp dir.
class FixtureCleanup : public ::testing::Environment {
 public:
  void TearDown() override {
    if (g_fixture == nullptr) return;
    std::error_code ec;
    fs::remove_all(g_fixture->dir->path, ec);
  }
};

[[maybe_unused]] ::testing::Environment* const kFixtureCleanup =
    ::testing::AddGlobalTestEnvironment(new FixtureCleanup);

/// A running server over the shared artifact in its own socket dir.
struct ServerFixture {
  TempDir dir;
  Server server;

  explicit ServerFixture(std::function<void(ServerOptions&)> tweak = {})
      : server(make_options(dir, std::move(tweak))) {
    server.start();
  }

  static ServerOptions make_options(const TempDir& dir,
                                    std::function<void(ServerOptions&)> tweak) {
    ServerOptions opts;
    opts.socket_path = dir.path / "serve.sock";
    opts.models.emplace_back("m", fx().armm_path);
    opts.watch_interval_ms = 50;
    if (tweak) tweak(opts);
    return opts;
  }

  [[nodiscard]] Client client() const {
    return Client::connect_unix(server.socket_path());
  }
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Serve, PingPredictListStats) {
  ServerFixture sf;
  Client client = sf.client();
  EXPECT_EQ(client.ping().status, Status::kOk);

  const net::Asn asn = fx().serving.targets().front();
  const auto [status, result] = client.predict("m", asn);
  ASSERT_EQ(status, Status::kOk);
  const auto want = fx().serving.predict(asn);
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(bits(result->prediction.magnitude), bits(want->magnitude));
  EXPECT_EQ(bits(result->prediction.hour), bits(want->hour));
  EXPECT_EQ(result->prediction.start, want->start);
  EXPECT_EQ(result->family_name,
            fx().serving.family_name(want->assumed_family));

  const auto list = client.request(Opcode::kList, Precision::kF64, "", "");
  EXPECT_EQ(list.status, Status::kOk);
  EXPECT_NE(list.payload.find('m'), std::string::npos);

  const auto stats = client.request(Opcode::kStats, Precision::kF64, "", "");
  EXPECT_EQ(stats.status, Status::kOk);
  EXPECT_NE(stats.payload.find("requests="), std::string::npos);

  const auto [missing, none] = client.predict("nope", asn);
  EXPECT_EQ(missing, Status::kUnknownModel);
  EXPECT_FALSE(none.has_value());
  const auto [cold, nothing] = client.predict("m", 4294967295u);
  EXPECT_EQ(cold, Status::kNoPrediction);
  EXPECT_FALSE(nothing.has_value());
}

/// Every target over TCP at `precision` must match the in-process
/// ServingModel::predict at that precision bit for bit.
void expect_identical_over_tcp(Precision precision) {
  ServerFixture sf([](ServerOptions& o) { o.tcp_port = -1; });
  ASSERT_GT(sf.server.tcp_port(), 0);
  Client client = Client::connect_tcp(sf.server.tcp_port());
  for (net::Asn asn : fx().serving.targets()) {
    const auto want = fx().serving.predict(asn, precision);
    const auto [status, result] = client.predict("m", asn, precision);
    ASSERT_EQ(status, Status::kOk) << "AS" << asn;
    EXPECT_EQ(result->prediction.assumed_family, want->assumed_family);
    EXPECT_EQ(bits(result->prediction.magnitude), bits(want->magnitude));
    EXPECT_EQ(bits(result->prediction.magnitude_sd), bits(want->magnitude_sd));
    EXPECT_EQ(bits(result->prediction.duration_s), bits(want->duration_s));
    EXPECT_EQ(bits(result->prediction.hour), bits(want->hour));
    EXPECT_EQ(bits(result->prediction.day), bits(want->day));
    EXPECT_EQ(result->prediction.start, want->start);
    ASSERT_EQ(result->prediction.source_distribution.size(),
              want->source_distribution.size());
    for (const auto& [src, share] : want->source_distribution) {
      EXPECT_EQ(bits(result->prediction.source_distribution.at(src)),
                bits(share));
    }
  }
}

TEST(Serve, F64PredictionsIdenticalForEveryTargetOverTcp) {
  expect_identical_over_tcp(Precision::kF64);
}

TEST(Serve, F32PredictionsIdenticalForEveryTargetOverTcp) {
  expect_identical_over_tcp(Precision::kF32);
}

TEST(Serve, MalformedBodyGetsTypedErrorThenClose) {
  ServerFixture sf;
  Client client = sf.client();
  // Valid length prefix, garbage body: clean kBadRequest frame, then EOF.
  std::string raw;
  const std::string junk = "this is not a request";
  std::uint32_t len = static_cast<std::uint32_t>(junk.size());
  raw.append(reinterpret_cast<const char*>(&len), 4);
  raw += junk;
  client.send_raw(raw);
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_TRUE(client.drain().empty());  // Server closed the connection.
}

TEST(Serve, OversizedRequestGetsTooLargeThenClose) {
  ServerFixture sf;
  Client client = sf.client();
  const std::uint32_t len = kMaxBody + 1;
  std::string raw(reinterpret_cast<const char*>(&len), 4);
  raw += "xxxx";
  client.send_raw(raw);
  const auto resp = client.read_response();
  EXPECT_EQ(resp.status, Status::kTooLarge);
  EXPECT_TRUE(client.drain().empty());
}

TEST(Serve, GarbagePrefixPropertyAlwaysYieldsCleanErrorFrame) {
  // Property: ANY byte-garbage prefix (half-closed so the server sees
  // EOF) is answered with a well-formed error frame, never a crash, a
  // stall, or a dirty close with no reply.
  ServerFixture sf;
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 48; ++trial) {
    Client client = sf.client();
    const std::size_t n = 1 + rng() % 64;
    std::string garbage(n, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    client.send_raw(garbage);
    ::shutdown(client.fd(), SHUT_WR);
    const auto resp = client.read_response();
    EXPECT_NE(resp.status, Status::kOk) << "trial " << trial;
    EXPECT_TRUE(client.drain().empty()) << "trial " << trial;
  }
  // The daemon survived all of it.
  Client healthy = sf.client();
  EXPECT_EQ(healthy.ping().status, Status::kOk);
}

TEST(Serve, SlowLorisPartialFrameIsTimedOutWithoutStallingWorkers) {
  ServerFixture sf([](ServerOptions& o) { o.io_timeout_ms = 150; });
  Client slow = sf.client();
  // 4-byte length promising a body that never arrives.
  const std::uint32_t len = 64;
  slow.send_raw({reinterpret_cast<const char*>(&len), 4});
  // Workers keep serving others while the partial frame waits.
  Client healthy = sf.client();
  EXPECT_EQ(healthy.ping().status, Status::kOk);
  // The stalled connection is closed within the timeout window.
  EXPECT_TRUE(slow.drain().empty());
  EXPECT_EQ(healthy.ping().status, Status::kOk);
}

TEST(Serve, ClientDisconnectMidResponseDoesNotCrashOrStall) {
  ServerFixture sf;
  const net::Asn asn = fx().serving.targets().front();
  for (int i = 0; i < 16; ++i) {
    Client client = sf.client();
    client.send_raw(encode_request(Opcode::kPredict, Precision::kF64, "m",
                                   {reinterpret_cast<const char*>(&asn), 4}));
    // Destructor closes the socket before (or while) the response lands.
  }
  Client healthy = sf.client();
  for (int i = 0; i < 4; ++i) {
    const auto [status, result] = healthy.predict("m", asn);
    EXPECT_EQ(status, Status::kOk);
  }
}

TEST(Serve, PipelinedDuplicatesAreCoalesced) {
  ServerFixture sf([](ServerOptions& o) {
    o.threads = 1;
    o.max_batch = 64;
    o.preload = true;
  });
  Client client = sf.client();
  const net::Asn asn = fx().serving.targets().front();
  const std::string req = encode_request(
      Opcode::kPredict, Precision::kF64, "m",
      {reinterpret_cast<const char*>(&asn), 4});
  constexpr int kPipelined = 500;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) burst += req;
  client.send_raw(burst);
  const auto want = fx().serving.predict(asn);
  for (int i = 0; i < kPipelined; ++i) {
    const auto resp = client.read_response();
    ASSERT_EQ(resp.status, Status::kOk) << "response " << i;
    const PredictResult result = decode_prediction(resp.payload);
    EXPECT_EQ(bits(result.prediction.magnitude), bits(want->magnitude));
  }
  const ServerStats stats = sf.server.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kPipelined));
  EXPECT_GT(stats.coalesced, 0u);
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kPipelined));
}

TEST(Serve, PipelinedPrecisionsAreNotCoalesced) {
  // The precision byte is part of the coalescing key: interleaved f64 and
  // f32 requests for one target, batched together, each get their own
  // precision's answer. Pick a target whose two answers differ.
  const auto targets = fx().serving.targets();
  const auto differs = [](net::Asn asn) {
    const auto a = fx().serving.predict(asn, Precision::kF64);
    const auto b = fx().serving.predict(asn, Precision::kF32);
    return bits(a->magnitude) != bits(b->magnitude);
  };
  const auto it = std::find_if(targets.begin(), targets.end(), differs);
  ASSERT_NE(it, targets.end());
  const net::Asn asn = *it;
  ServerFixture sf([](ServerOptions& o) {
    o.threads = 1;
    o.max_batch = 64;
    o.preload = true;
  });
  Client client = sf.client();
  const std::string_view payload{reinterpret_cast<const char*>(&asn), 4};
  const std::string pair =
      encode_request(Opcode::kPredict, Precision::kF64, "m", payload) +
      encode_request(Opcode::kPredict, Precision::kF32, "m", payload);
  constexpr int kPairs = 100;
  std::string burst;
  for (int i = 0; i < kPairs; ++i) burst += pair;
  client.send_raw(burst);
  const auto want64 = fx().serving.predict(asn, Precision::kF64);
  const auto want32 = fx().serving.predict(asn, Precision::kF32);
  for (int i = 0; i < 2 * kPairs; ++i) {
    const auto resp = client.read_response();
    ASSERT_EQ(resp.status, Status::kOk) << "response " << i;
    const PredictResult result = decode_prediction(resp.payload);
    const auto& want = (i % 2) == 0 ? want64 : want32;
    EXPECT_EQ(bits(result.prediction.magnitude), bits(want->magnitude))
        << "response " << i;
  }
  // Same-precision duplicates still coalesce within a batch.
  EXPECT_GT(sf.server.stats().coalesced, 0u);
}

TEST(Serve, UnbatchedModeServesIdenticalAnswers) {
  ServerFixture sf([](ServerOptions& o) { o.batching = false; });
  Client client = sf.client();
  for (net::Asn asn : fx().serving.targets()) {
    const auto want = fx().serving.predict(asn);
    const auto [status, result] = client.predict("m", asn);
    ASSERT_EQ(status, Status::kOk);
    EXPECT_EQ(bits(result->prediction.magnitude), bits(want->magnitude));
    EXPECT_EQ(result->prediction.start, want->start);
  }
  EXPECT_EQ(sf.server.stats().coalesced, 0u);
}

TEST(Serve, LruEvictsLeastRecentlyUsedModel) {
  ServerFixture sf([](ServerOptions& o) {
    o.max_resident = 1;
    o.models.emplace_back("m2", fx().armm_path);
    o.models.emplace_back("m3", fx().armm_path);
  });
  Client client = sf.client();
  const net::Asn asn = fx().serving.targets().front();
  for (const char* name : {"m", "m2", "m3", "m", "m2"}) {
    const auto [status, result] = client.predict(name, asn);
    EXPECT_EQ(status, Status::kOk) << name;
  }
  const ServerStats stats = sf.server.stats();
  EXPECT_EQ(stats.lru_misses, 5u);  // max_resident=1: every switch reloads.
  EXPECT_GE(stats.lru_evictions, 4u);
}

/// Hot-swap under load: worker threads hammer predicts while the artifact
/// is renamed over repeatedly. Every in-flight request must complete with
/// a byte-identical kOk answer and the generation must advance.
void swap_under_load(std::size_t server_threads) {
  TempDir dir;
  const fs::path live = dir.path / "live.armm";
  durable::atomic_write_file(live, fx().serving.image());
  ServerOptions opts;
  opts.socket_path = dir.path / "serve.sock";
  opts.models.emplace_back("m", live);
  opts.threads = server_threads;
  opts.watch_interval_ms = 20;
  opts.preload = true;
  Server server(std::move(opts));
  server.start();

  const auto targets = fx().serving.targets();
  std::vector<std::uint64_t> want_bits(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    want_bits[i] = bits(fx().serving.predict(targets[i])->magnitude);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      Client client = Client::connect_unix(server.socket_path());
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load()) {
        const std::size_t at = i++ % targets.size();
        const auto [status, result] = client.predict("m", targets[at]);
        if (status != Status::kOk ||
            bits(result->prediction.magnitude) != want_bits[at]) {
          wrong.fetch_add(1);
        }
        completed.fetch_add(1);
      }
    });
  }

  // Rotate the artifact several times mid-flight (same bits, new inode —
  // exactly what the ingest refit's atomic_write_file publish does).
  const std::uint64_t start_gen = server.generation("m");
  for (int rotation = 0; rotation < 3; ++rotation) {
    durable::atomic_write_file(live, fx().serving.image());
    ASSERT_TRUE(server.wait_for_generation(
        "m", start_gen + static_cast<std::uint64_t>(rotation) + 1, 5000))
        << "rotation " << rotation;
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();
  server.stop();

  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(completed.load(), 0u);
  EXPECT_GE(server.stats().swaps, 3u);
  // Zero lost requests: the daemon answered every round-trip it was sent.
  EXPECT_EQ(server.stats().requests, completed.load());
}

TEST(Serve, HotSwapUnderLoad1Thread) { swap_under_load(1); }
TEST(Serve, HotSwapUnderLoad4Threads) { swap_under_load(4); }
TEST(Serve, HotSwapUnderLoad16Threads) { swap_under_load(16); }

TEST(Serve, CorruptRotationKeepsPreviousGenerationServing) {
  TempDir dir;
  const fs::path live = dir.path / "live.armm";
  durable::atomic_write_file(live, fx().serving.image());
  ServerOptions opts;
  opts.socket_path = dir.path / "serve.sock";
  opts.models.emplace_back("m", live);
  opts.watch_interval_ms = 20;
  opts.preload = true;
  Server server(std::move(opts));
  server.start();
  const net::Asn asn = fx().serving.targets().front();
  Client client = Client::connect_unix(server.socket_path());
  ASSERT_EQ(client.predict("m", asn).first, Status::kOk);

  // A torn/corrupt artifact lands on the watched path: the watcher must
  // reject it and keep serving the resident generation.
  durable::atomic_write_file(live, "definitely not an artifact");
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto [status, result] = client.predict("m", asn);
  EXPECT_EQ(status, Status::kOk);
  EXPECT_EQ(bits(result->prediction.magnitude),
            bits(fx().serving.predict(asn)->magnitude));
  EXPECT_EQ(server.stats().swaps, 0u);

  // The next healthy rotation swaps in cleanly (self-healing).
  durable::atomic_write_file(live, fx().serving.image());
  EXPECT_TRUE(server.wait_for_generation("m", 2, 5000));
  EXPECT_EQ(client.predict("m", asn).first, Status::kOk);
  server.stop();
}

// --- CLI surface ------------------------------------------------------------

int run_cli(std::initializer_list<std::string> args, std::string* out_text,
            std::string* err_text = nullptr) {
  std::vector<std::string> argv(args);
  std::ostringstream out, err;
  const int code = cli::run(argv, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(ServeCli, PackProducesMappableArtifact) {
  TempDir dir;
  const fs::path out_path = dir.path / "packed.armm";
  std::string out;
  ASSERT_EQ(run_cli({"pack", "--model", fx().art_path.string(), "--out",
                     out_path.string()},
                    &out),
            0);
  EXPECT_NE(out.find("packed"), std::string::npos);
  const ServingModel mapped = ServingModel::map_file(out_path);
  EXPECT_EQ(mapped.image(), fx().serving.image());

  std::string err;
  EXPECT_EQ(run_cli({"pack", "--model", (dir.path / "nope.art").string(),
                     "--out", out_path.string()},
                    &out, &err),
            3);
}

TEST(ServeCli, QueryOutputByteIdenticalToPredictCli) {
  ServerFixture sf;
  const auto targets = fx().serving.targets();
  std::vector<std::string> predict_args = {"predict", "--model",
                                           fx().art_path.string()};
  std::vector<std::string> query_args = {
      "query", "--socket", sf.server.socket_path().string(), "--model", "m"};
  for (net::Asn asn : targets) {
    predict_args.push_back("--target");
    predict_args.push_back(std::to_string(asn));
    query_args.push_back("--target");
    query_args.push_back(std::to_string(asn));
  }
  std::ostringstream predict_out, query_out, err;
  ASSERT_EQ(cli::run(predict_args, predict_out, err), 0) << err.str();
  ASSERT_EQ(cli::run(query_args, query_out, err), 0) << err.str();
  EXPECT_EQ(query_out.str(), predict_out.str());
}

TEST(ServeCli, QueryMixIsDeterministicAndErrorsAreTyped) {
  ServerFixture sf;
  const std::string socket = sf.server.socket_path().string();
  const std::string target =
      std::to_string(fx().serving.targets().front());
  std::string first, second;
  ASSERT_EQ(run_cli({"query", "--socket", socket, "--model", "m", "--target",
                     target, "--count", "10", "--seed", "3"},
                    &first),
            0);
  ASSERT_EQ(run_cli({"query", "--socket", socket, "--model", "m", "--target",
                     target, "--count", "10", "--seed", "3"},
                    &second),
            0);
  EXPECT_EQ(first, second);

  std::string out, err;
  EXPECT_EQ(run_cli({"query", "--socket", socket, "--model", "ghost",
                     "--target", target},
                    &out, &err),
            3);
  EXPECT_EQ(run_cli({"query", "--model", "m", "--target", target}, &out,
                    &err),
            2);  // Neither --socket nor --port.
}

TEST(ServeCli, StaleSocketFileIsReplacedOnStart) {
  TempDir dir;
  const fs::path sock = dir.path / "serve.sock";
  {  // A dead daemon's leftover socket must not block a restart.
    ServerOptions opts;
    opts.socket_path = sock;
    opts.models.emplace_back("m", fx().armm_path);
    Server first(std::move(opts));
    first.start();
    first.stop();
  }
  std::ofstream(sock) << "";  // Simulate a stale leftover file.
  ServerOptions opts;
  opts.socket_path = sock;
  opts.models.emplace_back("m", fx().armm_path);
  Server server(std::move(opts));
  server.start();
  Client client = Client::connect_unix(sock);
  EXPECT_EQ(client.ping().status, Status::kOk);
  server.stop();
}

}  // namespace
}  // namespace acbm::core::serve
