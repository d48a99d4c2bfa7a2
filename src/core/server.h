// Batched concurrent forecast daemon over mmap'd serving models
// (core/serving.h).
//
// Architecture: one IO/reactor thread (poll + self-pipe wakeup,
// non-blocking sockets, per-connection read/write buffers, slow-loris
// timeout), a worker pool draining a shared request queue in per-tick
// batches with identical (model, asn, precision) requests coalesced to a
// single forecast, a registry of resident models bounded by an LRU, and a
// watcher thread that polls each artifact path and atomically swaps in a
// new generation on change — in-flight requests keep their shared_ptr
// snapshot, so a swap never drops or corrupts a response.
//
// Wire protocol (all integers little-endian):
//   request  := u32 body_len | u32 magic 'ACBQ' | u8 opcode | u8 precision
//               | u16 name_len | name bytes | payload
//   response := u32 body_len | u32 magic 'ACBR' | u8 status | u8 opcode
//               | u16 reserved | payload
// Opcodes: 0 ping, 1 predict (payload u32 target asn), 2 list, 3 stats.
// Status: 0 ok, 1 no prediction, 2 unknown model, 3 bad request,
// 4 too large, 5 internal error. Any malformed body yields a clean
// kBadRequest frame and the connection is closed (resync after garbage is
// impossible in a length-prefixed stream). Body length is capped at 1 MiB.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/pipeline.h"
#include "core/serving.h"

namespace acbm::core::serve {

inline constexpr std::uint32_t kRequestMagic = 0x51424341u;   // "ACBQ".
inline constexpr std::uint32_t kResponseMagic = 0x52424341u;  // "ACBR".
inline constexpr std::uint32_t kMaxBody = 1u << 20;

enum class Opcode : std::uint8_t {
  kPing = 0,
  kPredict = 1,
  kList = 2,
  kStats = 3,
};

enum class Status : std::uint8_t {
  kOk = 0,
  kNoPrediction = 1,
  kUnknownModel = 2,
  kBadRequest = 3,
  kTooLarge = 4,
  kInternal = 5,
};

[[nodiscard]] std::string_view status_name(Status status) noexcept;

/// A decoded predict response.
struct PredictResult {
  AttackPrediction prediction;
  std::string family_name;
  /// source_distribution flattened and sorted ascending by ASN (the wire
  /// order; the map in `prediction` holds the same entries).
  std::vector<std::pair<net::Asn, double>> sources;
};

// --- Wire codec (shared by server, client, and the protocol tests) ---------

/// Encodes a full request frame (length prefix included).
[[nodiscard]] std::string encode_request(Opcode opcode, Precision precision,
                                         std::string_view model,
                                         std::string_view payload);

/// Encodes a full response frame (length prefix included).
[[nodiscard]] std::string encode_response(Status status, Opcode opcode,
                                          std::string_view payload);

/// Serializes a prediction into a predict-response payload.
[[nodiscard]] std::string encode_prediction(const AttackPrediction& pred,
                                            std::string_view family_name);

/// Parses a predict-response payload. Throws std::invalid_argument on a
/// malformed payload.
[[nodiscard]] PredictResult decode_prediction(std::string_view payload);

struct ServerOptions {
  /// Unix socket path; empty disables the Unix listener.
  std::filesystem::path socket_path;
  /// TCP port on 127.0.0.1; 0 disables, -1 asks for an ephemeral port
  /// (readable from Server::tcp_port() after start()).
  int tcp_port = 0;
  /// name -> artifact path (.armm or framed .art).
  std::vector<std::pair<std::string, std::filesystem::path>> models;
  std::size_t threads = 4;       ///< Worker pool size.
  std::size_t max_resident = 8;  ///< LRU bound on loaded models.
  bool batching = true;          ///< Coalesce per-tick duplicate requests.
  std::size_t max_batch = 64;    ///< Requests drained per worker tick.
  /// Artifact watch poll interval; 0 disables hot swap.
  std::size_t watch_interval_ms = 200;
  /// Close a connection whose partial frame or blocked write makes no
  /// progress for this long (slow-loris guard).
  std::size_t io_timeout_ms = 5000;
  /// Close fully idle connections after this long; 0 = never.
  std::size_t idle_timeout_ms = 0;
  /// Preload every registered model at start() instead of on first use.
  bool preload = false;
};

/// Point-in-time daemon counters (the stats opcode reports these).
struct ServerStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;  ///< Requests answered by a shared forecast.
  std::uint64_t errors = 0;     ///< Non-kOk responses.
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;
  std::uint64_t lru_evictions = 0;
  std::uint64_t swaps = 0;      ///< Generation hot-swaps applied.
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listeners, loads (or lazily registers) the models, and
  /// spawns the IO, worker, and watcher threads. Throws std::runtime_error
  /// on bind failure. Returns once the server is accepting connections.
  void start();

  /// Graceful shutdown: stops accepting, completes queued work with error
  /// responses dropped connections tolerate, joins all threads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(); }
  /// Bound TCP port (after start(); 0 when the TCP listener is disabled).
  [[nodiscard]] int tcp_port() const noexcept { return bound_port_; }
  [[nodiscard]] const std::filesystem::path& socket_path() const noexcept;

  [[nodiscard]] ServerStats stats() const;
  /// Generation counter of one model (0 = never loaded); for swap tests.
  [[nodiscard]] std::uint64_t generation(std::string_view model) const;
  /// Blocks until `model`'s generation reaches at least `gen` or the
  /// timeout elapses; true on success. For swap-under-load tests.
  [[nodiscard]] bool wait_for_generation(std::string_view model,
                                         std::uint64_t gen,
                                         std::size_t timeout_ms) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> running_{false};
  int bound_port_ = 0;
};

/// Minimal blocking client for the CLI, benches, and tests.
class Client {
 public:
  /// Connects to a Unix socket path.
  [[nodiscard]] static Client connect_unix(const std::filesystem::path& path);
  /// Connects to 127.0.0.1:port.
  [[nodiscard]] static Client connect_tcp(int port);
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  ~Client();

  /// Sends one request frame and reads one response frame. Throws
  /// std::runtime_error on transport errors.
  struct Response {
    Status status = Status::kInternal;
    Opcode opcode = Opcode::kPing;
    std::string payload;
  };
  [[nodiscard]] Response request(Opcode opcode, Precision precision,
                                 std::string_view model,
                                 std::string_view payload);

  /// Predict helper: status + decoded result when status == kOk.
  [[nodiscard]] std::pair<Status, std::optional<PredictResult>> predict(
      std::string_view model, net::Asn asn,
      Precision precision = Precision::kF64);

  [[nodiscard]] Response ping();

  /// Writes raw bytes (protocol-robustness tests: garbage, truncated
  /// frames, slow-loris drips).
  void send_raw(std::string_view bytes);
  /// Reads one response frame off the wire (after send_raw).
  [[nodiscard]] Response read_response();
  /// Reads until EOF or error; returns bytes read (for tests asserting the
  /// server closed the connection).
  [[nodiscard]] std::string drain();

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  explicit Client(int fd) : fd_(fd) {}
  int fd_ = -1;
};

}  // namespace acbm::core::serve
