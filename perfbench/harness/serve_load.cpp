// The serving layers of every workload's traced run. perfbench/run.py
// starts the shipped `acbm serve` daemon on the model the workload packed or
// published; the load phase here is a single open-loop generator process: a
// seeded Poisson schedule of predict requests whose targets follow a Zipf
// law over the model's targets, at the `light` and then the `heavy` rate,
// then pings, then the serving calls timed in process.
//
// Open-loop rules: every request is timed from the moment it was due, not
// from when it was sent, so a stall is charged to every request queued
// behind it; each connection carries one request at a time, because
// response frames carry no request id; and the generator's own lateness is
// measured, so a rate at which the generator itself fell behind is marked
// invalid.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <map>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "core/pipeline.h"
#include "core/server.h"
#include "core/serving.h"
#include "stats/kernels.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace core = acbm::core;
namespace serve = acbm::core::serve;

/// At most this many connections, and never more than the CPUs.
constexpr std::size_t kMaxConnections = 4;
/// A rate is invalid when the generator's own p99 lateness exceeds this.
constexpr double kLatenessLimitMs = 1.0;
/// The light and heavy phases each run for this share of --seconds.
constexpr double kPhaseShare = 0.6;
/// A request this late at send time is not sent: the rate is overloaded,
/// and the request counts as failed.
constexpr double kDropLateMs = 1000.0;
constexpr double kDroppedLatencyMs = 1e6;

/// Deterministic uniform [0, 1) draws independent of the standard
/// library's distribution implementations.
class Uniform {
 public:
  explicit Uniform(std::uint64_t seed) : engine_(seed) {}
  double operator()() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) over `ranked` targets: the k-th target (from 1) is drawn with
/// weight 1/k^s. Targets are ranked by how often they were attacked, so the
/// most-attacked targets are the most-queried ones. The exponent and the
/// ranking are assumptions, not measurements: no recorded query log exists
/// to fit them to.
class ZipfMix {
 public:
  ZipfMix(std::vector<net::Asn> ranked, double s) : targets_(std::move(ranked)) {
    double total = 0.0;
    for (std::size_t k = 0; k < targets_.size(); ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }
  net::Asn draw(Uniform& u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u());
    return targets_[std::min<std::size_t>(it - cdf_.begin(), targets_.size() - 1)];
  }

 private:
  std::vector<net::Asn> targets_;
  std::vector<double> cdf_;
};

std::string asn_payload(net::Asn asn) {
  std::string payload(4, '\0');
  const auto value = static_cast<std::uint32_t>(asn);
  std::memcpy(payload.data(), &value, 4);
  return payload;
}

struct Phase {
  std::string name;
  double rate = 0.0;     // Offered requests per second.
  double seconds = 0.0;  // Schedule length.
};

struct PhaseResult {
  std::vector<double> latency_ms;   // Due -> response, per request.
  std::vector<double> lateness_ms;  // Generator's own delay, per request.
  std::vector<double> rtt_us;       // Send -> response, per request.
  std::vector<double> lag_ms;       // Due -> send, per request.
  std::size_t requests = 0;
  std::size_t errors = 0;      // Non-kOk replies and transport errors.
  std::size_t mismatched = 0;  // kOk replies whose bytes differ.
  std::size_t dropped = 0;     // Never sent: the generator was too far behind.
};

struct Target {
  std::string name;
  std::string socket;
  std::unordered_map<net::Asn, std::string> expected;  // Predict payloads.
};

/// One connection of the generator: at most one request in flight.
struct Conn {
  explicit Conn(serve::Client c) : client(std::move(c)) {}
  serve::Client client;
  bool busy = false;
  std::size_t index = 0;     // Schedule index of the request in flight.
  Clock::time_point free_since;
  std::string out;           // Unsent bytes of the request frame.
  std::string in;            // Received bytes of the response frame.
};

/// Runs one phase's schedule from a single thread that spins between due
/// times instead of sleeping: on a virtual machine whose CPUs the host
/// preempts, a thread woken from sleep can be milliseconds late, and that
/// delay would be charged to the server. Sockets are non-blocking; responses
/// are parsed as frames.
PhaseResult run_phase(const Target& target, serve::Opcode opcode,
                      const Phase& phase, const ZipfMix& mix,
                      std::uint64_t seed, std::size_t connections) {
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(phase.rate * phase.seconds)));
  Uniform u(seed);
  std::vector<Clock::duration> offsets(n);
  std::vector<net::Asn> asns(n);
  double at_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    at_s += -std::log1p(-u()) / phase.rate;
    offsets[i] = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(at_s));
    asns[i] = mix.draw(u);
  }

  PhaseResult r;
  r.requests = n;
  r.latency_ms.assign(n, kDroppedLatencyMs);
  r.lateness_ms.assign(n, 0.0);
  r.rtt_us.assign(n, 0.0);
  r.lag_ms.assign(n, kDropLateMs);
  std::vector<Clock::time_point> sent(n);
  std::vector<Conn> conns;
  conns.reserve(connections);
  std::vector<pollfd> fds;
  for (std::size_t c = 0; c < connections; ++c) {
    conns.emplace_back(serve::Client::connect_unix(target.socket));
    const int fd = conns.back().client.fd();
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds.push_back(pollfd{fd, POLLIN, 0});
  }
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (Conn& c : conns) c.free_since = start;

  const auto flush = [&](Conn& c) {
    while (!c.out.empty()) {
      const ssize_t w = ::send(c.client.fd(), c.out.data(), c.out.size(), MSG_NOSIGNAL);
      if (w <= 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      c.out.erase(0, static_cast<std::size_t>(w));
    }
    return true;
  };
  const auto finish = [&](Conn& c, const Clock::time_point done, bool error,
                          std::string_view payload) {
    const std::size_t i = c.index;
    r.latency_ms[i] = ms(done - (start + offsets[i]));
    r.rtt_us[i] = 1000.0 * ms(done - sent[i]);
    if (error) {
      ++r.errors;
    } else if (opcode == serve::Opcode::kPredict &&
               payload != target.expected.at(asns[i])) {
      ++r.mismatched;
    }
    c.busy = false;
    c.in.clear();
    c.out.clear();
    c.free_since = done;
  };

  std::size_t next = 0;
  std::size_t in_flight = 0;
  std::size_t cursor = 0;  // Round-robin over free connections.
  while (next < n || in_flight > 0) {
    Clock::time_point now = Clock::now();
    // Requests that fell too far behind are dropped, not sent.
    while (next < n && ms(now - (start + offsets[next])) > kDropLateMs) {
      ++r.dropped;
      ++next;
    }
    while (next < n && start + offsets[next] <= now) {
      std::size_t k = 0;
      while (k < conns.size() && conns[(cursor + k) % conns.size()].busy) ++k;
      if (k == conns.size()) break;  // Every connection has a request in flight.
      Conn& c = conns[(cursor + k) % conns.size()];
      cursor = (cursor + k + 1) % conns.size();
      const Clock::time_point due = start + offsets[next];
      c.busy = true;
      c.index = next;
      c.out = serve::encode_request(
          opcode, core::Precision::kF64, target.name,
          opcode == serve::Opcode::kPredict ? asn_payload(asns[next]) : "");
      sent[next] = Clock::now();
      r.lateness_ms[next] = ms(sent[next] - std::max(due, c.free_since));
      r.lag_ms[next] = ms(sent[next] - due);
      ++next;
      ++in_flight;
      if (!flush(c)) {
        finish(c, Clock::now(), true, {});
        --in_flight;
      }
      now = Clock::now();
    }
    // Nothing due and nothing answered: let a server thread have this CPU.
    if (in_flight == 0 || ::poll(fds.data(), fds.size(), 0) <= 0) {
      ::sched_yield();
      continue;
    }
    for (std::size_t k = 0; k < conns.size(); ++k) {
      Conn& c = conns[k];
      if (!c.busy || (fds[k].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!flush(c)) {
        finish(c, Clock::now(), true, {});
        --in_flight;
        continue;
      }
      char buf[4096];
      const ssize_t got = ::recv(c.client.fd(), buf, sizeof buf, 0);
      if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
        finish(c, Clock::now(), true, {});
        --in_flight;
        c.client = serve::Client::connect_unix(target.socket);
        const int fd = c.client.fd();
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        fds[k].fd = fd;
        continue;
      }
      if (got < 0) continue;
      c.in.append(buf, static_cast<std::size_t>(got));
      if (c.in.size() < 4) continue;
      std::uint32_t len = 0;
      std::memcpy(&len, c.in.data(), 4);
      if (c.in.size() < 4 + static_cast<std::size_t>(len)) continue;
      const Clock::time_point done = Clock::now();
      std::uint32_t magic = 0;
      if (len >= 8) std::memcpy(&magic, c.in.data() + 4, 4);
      const bool ok = len >= 8 && magic == serve::kResponseMagic &&
                      static_cast<std::uint8_t>(c.in[8]) ==
                          static_cast<std::uint8_t>(serve::Status::kOk);
      const std::string payload = len >= 8 ? c.in.substr(12, len - 8) : std::string();
      finish(c, done, !ok, payload);
      --in_flight;
    }
  }
  return r;
}

/// The latencies of one offered rate.
struct Verdict {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lateness_p99_ms = 0.0;
  bool invalid = false;  // The generator itself fell behind.
};

/// p99 over consecutive windows of this many requests (ten samples beyond
/// each window's p99), and the median across windows: one host stall then
/// moves one window, not the phase's figure.
constexpr std::size_t kWindow = 1000;

Verdict judge(const PhaseResult& r) {
  Verdict v;
  v.p50_ms = quantile(r.latency_ms, 0.5);
  std::vector<double> window_p99;
  for (std::size_t at = 0; at + kWindow <= r.latency_ms.size(); at += kWindow) {
    window_p99.push_back(quantile(
        std::vector<double>(r.latency_ms.begin() + at, r.latency_ms.begin() + at + kWindow),
        0.99));
  }
  v.p99_ms = window_p99.size() >= 3 ? median(window_p99) : quantile(r.latency_ms, 0.99);
  v.lateness_p99_ms = quantile(r.lateness_ms, 0.99);
  v.invalid = v.lateness_p99_ms > kLatenessLimitMs;
  return v;
}

std::map<std::string, double> parse_stats(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t eq = line.find('=');
    if (eq != std::string::npos) values[line.substr(0, eq)] = std::stod(line.substr(eq + 1));
  }
  return values;
}

}  // namespace

int run_load(const Args& args) {
  const fs::path dir = args.str("dir");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const double seconds = args.num("seconds");
  const std::size_t connections = std::min<std::size_t>(
      kMaxConnections, std::max(1u, std::thread::hardware_concurrency()));
  Checks checks;
  Report report;

  // In-process reference answers from the same artifact the daemon maps.
  const core::ServingModel model = core::ServingModel::map_file(dir / "model.armm");
  const WorldFacts facts = read_world_facts(dir / "facts.txt");
  const Window window{facts.start, facts.end};
  Target target{args.str("model"), args.str("socket"), {}};
  std::vector<net::Asn> targets;
  bool corrupt = inject(args, "corrupt-forecast");
  for (const net::Asn asn : model.targets()) {
    std::optional<core::AttackPrediction> pred = model.predict(asn);
    if (!pred) continue;
    if (corrupt) pred->magnitude = -1.0;
    corrupt = false;
    const std::string why = implausible_forecast(*pred, window);
    checks.op(why.empty(), "AS" + std::to_string(asn) + ": " + why);
    if (!why.empty()) continue;
    target.expected[asn] =
        serve::encode_prediction(*pred, model.family_name(pred->assumed_family));
    targets.push_back(asn);
  }
  checks.expect(!targets.empty(), "the model forecasts no target");
  if (targets.empty()) {
    report.print(checks);
    return 0;
  }
  std::vector<net::Asn> ranked;
  for (const net::Asn asn : facts.ranked) {
    if (target.expected.count(asn) != 0) ranked.push_back(asn);
  }
  const ZipfMix mix(ranked, args.num("zipf-s"));

  // Warm-up: the daemon maps the model on first use, and every target's
  // answer is checked once before any timing.
  {
    serve::Client client = serve::Client::connect_unix(target.socket);
    for (const net::Asn asn : targets) {
      const auto resp = client.request(serve::Opcode::kPredict, core::Precision::kF64,
                                       target.name, asn_payload(asn));
      checks.op(resp.status == serve::Status::kOk && resp.payload == target.expected[asn],
                "warm-up answer for AS" + std::to_string(asn) +
                    " differs from the in-process forecast");
    }
  }

  std::uint64_t phase_seed = seed * 1000003ULL;
  double lateness_p99 = 0.0;
  const std::vector<Phase> phases = {
      {"light", args.num("light-qps"), kPhaseShare * seconds},
      {"heavy", args.num("heavy-qps"), kPhaseShare * seconds}};
  for (const Phase& phase : phases) {
    const PhaseResult r =
        run_phase(target, serve::Opcode::kPredict, phase, mix, ++phase_seed, connections);
    const Verdict v = judge(r);
    // A non-kOk or wrong reply fails its request, and so does a request the
    // overloaded generator never sent.
    checks.ops(r.requests, r.errors + r.mismatched + r.dropped,
               phase.name + ": " + std::to_string(r.errors) + " error, " +
                   std::to_string(r.mismatched) + " mismatched, " +
                   std::to_string(r.dropped) + " unsent replies");
    // A rate the generator fell behind on is marked; its latencies are
    // reported as measured.
    report.context("invalid." + phase.name, v.invalid ? "generator fell behind" : "no");
    report.metric("query_p50_ms." + phase.name, v.p50_ms);
    report.metric("query_p99_ms." + phase.name, v.p99_ms);
    report.context("loadgen.lateness_ms.p99." + phase.name, v.lateness_p99_ms);
    report.context("requests." + phase.name, static_cast<double>(r.requests));
    lateness_p99 = std::max(lateness_p99, v.lateness_p99_ms);
  }

  // Pings at the light rate: the daemon's path without predict.
  const Phase ping{"ping", phases.front().rate, phases.front().seconds};
  const PhaseResult r = run_phase(target, serve::Opcode::kPing, ping, mix, ++phase_seed, 1);
  checks.expect(r.errors == 0 && r.dropped == 0, "ping: failed round trips");
  report.metric("core.server.ping_rtt_us.p50", quantile(r.rtt_us, 0.5));
  report.metric("core.server.ping_rtt_us.p99", quantile(r.rtt_us, 0.99));
  report.metric("loadgen.lateness_ms.p99", lateness_p99);

  serve::Client client = serve::Client::connect_unix(target.socket);
  const auto stats = parse_stats(
      client.request(serve::Opcode::kStats, core::Precision::kF64, "", "").payload);
  const double requests = stats.count("requests") ? stats.at("requests") : 0.0;
  report.metric("core.server.coalesced_share",
                requests > 0 ? stats.at("coalesced") / requests : 0.0);

  // In-process layers over the same Zipf mix.
  Uniform u(seed + 17);
  std::vector<double> predict_us, codec_us;
  for (int i = 0; i < 2000; ++i) {
    const net::Asn asn = mix.draw(u);
    auto t = Clock::now();
    const std::optional<core::AttackPrediction> pred = model.predict(asn);
    predict_us.push_back(1000.0 * ms_since(t));
    t = Clock::now();
    const std::string request = serve::encode_request(
        serve::Opcode::kPredict, core::Precision::kF64, target.name, asn_payload(asn));
    const std::string payload =
        serve::encode_prediction(*pred, model.family_name(pred->assumed_family));
    const serve::PredictResult decoded = serve::decode_prediction(payload);
    codec_us.push_back(1000.0 * ms_since(t));
    if (i == 0) {
      checks.expect(payload == target.expected[asn] && !request.empty() &&
                        decoded.prediction.hour == pred->hour,
                    "codec round trip changed a forecast");
    }
  }
  std::vector<double> map_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t = Clock::now();
    const core::ServingModel mapped = core::ServingModel::map_file(dir / "model.armm");
    map_ms.push_back(ms_since(t));
    checks.expect(mapped.loaded(), "map_file returned an unloaded model");
  }
  report.metric("core.serving.map_ms", median(map_ms));
  report.metric("core.serving.predict_us.p50", quantile(predict_us, 0.5));
  report.metric("core.serving.predict_us.p99", quantile(predict_us, 0.99));
  report.metric("core.server.codec_us", sum(codec_us) / static_cast<double>(codec_us.size()));
  report.context("targets", static_cast<double>(targets.size()));
  report.context("connections", static_cast<double>(connections));
  report.context("isa", acbm::stats::isa_name(acbm::stats::active_isa()));
  report.print(checks);
  return 0;
}

}  // namespace perfbench
