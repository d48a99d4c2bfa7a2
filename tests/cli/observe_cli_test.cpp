// End-to-end coverage for the observability CLI surface: --trace /
// --metrics / --profile (and their ACBM_* env equivalents) on a real
// generate + fit round trip, plus the regression that turning
// observability on does not perturb the fitted model artifact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/cli.h"
#include "core/observe.h"
#include "core/parallel.h"

namespace acbm::cli {
namespace {

namespace fs = std::filesystem;
namespace observe = acbm::core::observe;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("acbm_observe_cli_test_" + std::to_string(::getpid()));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  [[nodiscard]] std::string file(const char* name) const {
    return (path / name).string();
  }
};

int run_cli(std::vector<std::string> argv, std::string* out_text,
            std::string* err_text = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(argv, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Generates one small world and leaves the thread count pinned to 3 so
/// the pool (and its counters) actually engage on single-core machines.
class ObserveCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    observe::set_enabled(false);
    observe::Tracer::instance().reset();
    observe::Metrics::instance().reset();
    acbm::core::set_num_threads(3);
    std::string out;
    std::string err;
    ASSERT_EQ(run_cli({"generate", "--seed", "11", "--days", "21", "--scale",
                       "0.4", "--dataset", dir_.file("ds.bin"), "--ipmap",
                       dir_.file("ip.bin")},
                      &out, &err),
              0)
        << err;
  }
  void TearDown() override {
    observe::set_enabled(false);
    observe::Tracer::instance().reset();
    observe::Metrics::instance().reset();
    acbm::core::set_num_threads(0);
  }

  int fit(std::vector<std::string> extra, std::string* out, std::string* err,
          const char* model_name = "model.bin") {
    std::vector<std::string> argv = {
        "fit",     "--dataset", dir_.file("ds.bin"), "--ipmap",
        dir_.file("ip.bin"), "--model",   dir_.file(model_name)};
    argv.insert(argv.end(), extra.begin(), extra.end());
    return run_cli(std::move(argv), out, err);
  }

  TempDir dir_;
};

/// Structural JSON check: nesting balances, honoring strings and escapes.
bool json_nesting_balances(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

/// Value of `name` in a Prometheus text dump, -1 when absent.
std::int64_t prometheus_value(const std::string& text,
                              const std::string& name) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stoll(line.substr(name.size() + 1));
    }
  }
  return -1;
}

TEST_F(ObserveCliTest, TraceMetricsAndProfileSinksAllEmit) {
  std::string out;
  std::string err;
  ASSERT_EQ(fit({"--trace", dir_.file("t.json"), "--metrics", "-",
                 "--profile"},
                &out, &err),
            0)
      << err;

  // --trace: structurally valid Chrome trace with the expected stages.
  const std::string trace = read_file(dir_.file("t.json"));
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(json_nesting_balances(trace));
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(trace.find("\"name\":\"cli.fit\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"fit.spatiotemporal\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"fit.submodels\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"fit.family\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"fit.target\""), std::string::npos);

  // --metrics -: dump lands on stdout with live cache and pool counters.
  EXPECT_NE(out.find("# TYPE acbm_"), std::string::npos);
  EXPECT_GT(prometheus_value(out, "acbm_feature_cache_hit_total"), 0);
  EXPECT_GT(prometheus_value(out, "acbm_pool_tasks_total"), 0);
  EXPECT_GT(prometheus_value(out, "acbm_ols_solves_total"), 0);

  // --profile: merged span tree on stderr.
  EXPECT_NE(err.find("acbm profile"), std::string::npos);
  EXPECT_NE(err.find("cli.fit"), std::string::npos);
  EXPECT_NE(err.find("fit.spatiotemporal"), std::string::npos);
}

TEST_F(ObserveCliTest, ObservabilityDoesNotPerturbTheModelArtifact) {
  std::string out;
  std::string err;
  ASSERT_EQ(fit({}, &out, &err, "plain.bin"), 0) << err;
  ASSERT_EQ(fit({"--trace", dir_.file("t.json"), "--metrics",
                 dir_.file("m.prom"), "--profile"},
                &out, &err, "observed.bin"),
            0)
      << err;
  const std::string plain = read_file(dir_.file("plain.bin"));
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, read_file(dir_.file("observed.bin")));
}

TEST_F(ObserveCliTest, ModelArtifactIsThreadCountInvariantUnderTracing) {
  std::string out;
  std::string err;
  acbm::core::set_num_threads(1);
  ASSERT_EQ(fit({"--profile"}, &out, &err, "t1.bin"), 0) << err;
  acbm::core::set_num_threads(3);
  ASSERT_EQ(fit({"--profile"}, &out, &err, "t3.bin"), 0) << err;
  const std::string serial = read_file(dir_.file("t1.bin"));
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, read_file(dir_.file("t3.bin")));
}

TEST_F(ObserveCliTest, EnvVariablesMirrorTheFlags) {
  ::setenv("ACBM_PROFILE", "1", 1);
  ::setenv("ACBM_METRICS", dir_.file("env.prom").c_str(), 1);
  std::string out;
  std::string err;
  const int code = fit({}, &out, &err, "env.bin");
  ::unsetenv("ACBM_PROFILE");
  ::unsetenv("ACBM_METRICS");
  ASSERT_EQ(code, 0) << err;
  EXPECT_NE(err.find("acbm profile"), std::string::npos);
  const std::string metrics = read_file(dir_.file("env.prom"));
  EXPECT_NE(metrics.find("acbm_fit_records_total"), std::string::npos);
}

TEST_F(ObserveCliTest, ProfileOffLeavesStderrQuiet) {
  std::string out;
  std::string err;
  ASSERT_EQ(fit({}, &out, &err, "quiet.bin"), 0) << err;
  EXPECT_EQ(err.find("acbm profile"), std::string::npos);
}

TEST_F(ObserveCliTest, MissingTraceValueIsAUsageError) {
  std::string out;
  std::string err;
  EXPECT_EQ(fit({"--trace"}, &out, &err, "bad.bin"), 2);
  EXPECT_NE(err.find("--trace"), std::string::npos);
}

TEST_F(ObserveCliTest, ObserveFlagsWorkOnGenerateToo) {
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"generate", "--seed", "3", "--days", "10", "--dataset",
                     dir_.file("g.bin"), "--ipmap", dir_.file("gip.bin"),
                     "--trace", dir_.file("g.json"), "--profile"},
                    &out, &err),
            0)
      << err;
  const std::string trace = read_file(dir_.file("g.json"));
  EXPECT_NE(trace.find("\"name\":\"cli.generate\""), std::string::npos);
  EXPECT_NE(err.find("cli.generate"), std::string::npos);
}

}  // namespace
}  // namespace acbm::cli
