#include "cli/cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace acbm::cli {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("acbm_cli_test_" + std::to_string(::getpid()));
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

int run_cli(std::initializer_list<std::string> args, std::string* out_text,
            std::string* err_text = nullptr) {
  std::vector<std::string> argv(args);
  std::ostringstream out;
  std::ostringstream err;
  const int code = run(argv, out, err);
  if (out_text) *out_text = out.str();
  if (err_text) *err_text = err.str();
  return code;
}

TEST(Cli, HelpPrintsUsage) {
  std::string out;
  EXPECT_EQ(run_cli({"help"}, &out), 0);
  EXPECT_NE(out.find("usage: acbm"), std::string::npos);
  EXPECT_NE(out.find("generate"), std::string::npos);
}

TEST(Cli, NoArgumentsIsAUsageError) {
  std::string out;
  EXPECT_EQ(run_cli({}, &out), 2);
  EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  std::string out;
  std::string err;
  EXPECT_EQ(run_cli({"frobnicate"}, &out, &err), 2);
  EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownOptionFails) {
  const auto expect_unknown = [](std::initializer_list<std::string> args,
                                 const std::string& option) {
    std::string out;
    std::string err;
    EXPECT_EQ(run_cli(args, &out, &err), 2) << option;
    EXPECT_NE(err.find("unknown option " + option), std::string::npos)
        << err;
  };
  expect_unknown({"stats", "--bogus", "1"}, "--bogus");
  expect_unknown({"stats", "--fast-math", "1"}, "--fast-math");
  // Unknown wherever it stands: last without a value, or before a known
  // option it would otherwise take as its value.
  expect_unknown({"stats", "--dataset", "t.csv", "--bogus"}, "--bogus");
  expect_unknown({"stats", "--bogus", "--dataset", "t.csv"}, "--bogus");
}

TEST(Cli, MissingRequiredOptionFails) {
  std::string out;
  std::string err;
  EXPECT_EQ(run_cli({"generate", "--seed", "1"}, &out, &err), 2);
  EXPECT_NE(err.find("missing required"), std::string::npos);
}

TEST(Cli, MissingFileFails) {
  std::string out;
  std::string err;
  EXPECT_EQ(run_cli({"stats", "--dataset", "/nonexistent/x.csv"}, &out, &err),
            3);
  EXPECT_NE(err.find("cannot open"), std::string::npos);
}

// One end-to-end pass through all four commands sharing generated files.
TEST(Cli, GenerateStatsPredictEvaluateRoundTrip) {
  TempDir tmp;
  const std::string dataset = tmp.file("trace.csv");
  const std::string ipmap = tmp.file("ipmap.txt");

  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"generate", "--seed", "5", "--days", "40", "--dataset",
                     dataset, "--ipmap", ipmap},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("generated"), std::string::npos);
  EXPECT_TRUE(fs::exists(dataset));
  EXPECT_TRUE(fs::exists(ipmap));

  ASSERT_EQ(run_cli({"stats", "--dataset", dataset}, &out, &err), 0) << err;
  EXPECT_NE(out.find("DirtJumper"), std::string::npos);
  EXPECT_NE(out.find("families"), std::string::npos);

  ASSERT_EQ(run_cli({"predict", "--dataset", dataset, "--ipmap", ipmap,
                     "--top", "2"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("target"), std::string::npos);
  EXPECT_NE(out.find("AS"), std::string::npos);

  ASSERT_EQ(
      run_cli({"evaluate", "--dataset", dataset, "--ipmap", ipmap}, &out, &err),
      0)
      << err;
  EXPECT_NE(out.find("hour RMSE"), std::string::npos);
  EXPECT_NE(out.find("spatiotemporal"), std::string::npos);
}

TEST(Cli, FitThenPredictFromSavedModel) {
  TempDir tmp;
  const std::string dataset = tmp.file("trace.csv");
  const std::string ipmap = tmp.file("ipmap.txt");
  const std::string model = tmp.file("model.acbm");
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"generate", "--seed", "7", "--days", "35", "--dataset",
                     dataset, "--ipmap", ipmap},
                    &out, &err),
            0);
  ASSERT_EQ(run_cli({"fit", "--dataset", dataset, "--ipmap", ipmap, "--model",
                     model},
                    &out, &err),
            0)
      << err;
  EXPECT_TRUE(fs::exists(model));

  // Prediction from the saved model matches on-the-fly fitting exactly
  // (both paths are deterministic).
  std::string from_model;
  std::string from_fit;
  ASSERT_EQ(run_cli({"predict", "--model", model, "--top", "3"}, &from_model,
                    &err),
            0)
      << err;
  ASSERT_EQ(run_cli({"predict", "--dataset", dataset, "--ipmap", ipmap,
                     "--top", "3"},
                    &from_fit, &err),
            0)
      << err;
  EXPECT_EQ(from_model, from_fit);
}

TEST(Cli, PredictSpecificTarget) {
  TempDir tmp;
  const std::string dataset = tmp.file("trace.csv");
  const std::string ipmap = tmp.file("ipmap.txt");
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"generate", "--seed", "9", "--days", "30", "--dataset",
                     dataset, "--ipmap", ipmap},
                    &out, &err),
            0);
  // Find a real target from stats-free route: predict top-1 first.
  ASSERT_EQ(run_cli({"predict", "--dataset", dataset, "--ipmap", ipmap,
                     "--top", "1"},
                    &out, &err),
            0);
  // Unknown target reports gracefully.
  ASSERT_EQ(run_cli({"predict", "--dataset", dataset, "--ipmap", ipmap,
                     "--target", "999999"},
                    &out, &err),
            0);
  EXPECT_NE(out.find("no history"), std::string::npos);
}

TEST(Cli, ListScenariosPrintsCatalog) {
  std::string out;
  ASSERT_EQ(run_cli({"generate", "--list-scenarios"}, &out), 0);
  for (const char* name : {"paper-table1", "pulse-wave", "carpet-bomb",
                           "multi-vector", "iot-botnet"}) {
    EXPECT_NE(out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, UnknownScenarioIsAUsageError) {
  std::string out;
  std::string err;
  EXPECT_EQ(run_cli({"generate", "--scenario", "no-such"}, &out, &err), 2);
  // The error names the known scenarios so the fix is one retype away.
  EXPECT_NE(err.find("no-such"), std::string::npos);
  EXPECT_NE(err.find("pulse-wave"), std::string::npos);
}

TEST(Cli, MalformedScenarioParamIsAUsageError) {
  std::string out;
  std::string err;
  EXPECT_EQ(run_cli({"generate", "--scenario", "pulse-wave",
                     "--scenario-param", "rotation=zebra"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("rotation"), std::string::npos);
  // A key from a different scenario is rejected, not silently ignored.
  EXPECT_EQ(run_cli({"generate", "--scenario", "pulse-wave",
                     "--scenario-param", "spread=0.5"},
                    &out, &err),
            2);
}

// The catalog's frozen default: routing generate through --scenario
// paper-table1 must leave the artifacts byte-identical to a plain generate.
TEST(Cli, GenerateScenarioPaperTable1IsByteIdentical) {
  TempDir tmp;
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"generate", "--seed", "3", "--days", "25", "--dataset",
                     tmp.file("plain.csv"), "--ipmap", tmp.file("plain.map")},
                    &out, &err),
            0)
      << err;
  const std::string plain_banner = out;
  ASSERT_EQ(run_cli({"generate", "--seed", "3", "--days", "25", "--scenario",
                     "paper-table1", "--dataset", tmp.file("cat.csv"),
                     "--ipmap", tmp.file("cat.map")},
                    &out, &err),
            0)
      << err;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };
  EXPECT_EQ(slurp(tmp.file("plain.csv")), slurp(tmp.file("cat.csv")));
  EXPECT_EQ(slurp(tmp.file("plain.map")), slurp(tmp.file("cat.map")));
  // And the banner stays stable too (no scenario line for the default).
  EXPECT_EQ(out.find("scenario:"), std::string::npos);
  EXPECT_NE(plain_banner.find("generated"), std::string::npos);
}

TEST(Cli, GenerateNamedScenarioAnnouncesItself) {
  TempDir tmp;
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"generate", "--seed", "2", "--days", "20", "--scenario",
                     "pulse-wave", "--scenario-param", "rotation=4",
                     "--dataset", tmp.file("pw.csv"), "--ipmap",
                     tmp.file("pw.map")},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("scenario: pulse-wave"), std::string::npos);
  EXPECT_TRUE(fs::exists(tmp.file("pw.csv")));
}

TEST(Cli, EvaluateScenarioEmitsPredictabilityTable) {
  std::string out;
  std::string err;
  ASSERT_EQ(run_cli({"evaluate", "--scenario", "carpet-bomb"}, &out, &err), 0)
      << err;
  EXPECT_NE(out.find("scenario: carpet-bomb"), std::string::npos);
  EXPECT_NE(out.find("hour RMSE (naive):"), std::string::npos);
  EXPECT_NE(out.find("date RMSE (naive):"), std::string::npos);
  EXPECT_NE(out.find("ordering (hour):"), std::string::npos);
  EXPECT_NE(out.find("paper ordering"), std::string::npos);
  // Mixing the self-contained preset with a saved trace is a usage error.
  EXPECT_EQ(run_cli({"evaluate", "--scenario", "carpet-bomb", "--dataset",
                     "/nonexistent/x.csv"},
                    &out, &err),
            2);
}

}  // namespace
}  // namespace acbm::cli
