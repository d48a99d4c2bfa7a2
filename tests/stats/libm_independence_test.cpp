// The fitted model's bytes do not depend on the C library's math code
// (ctest label `simd`). glibc selects FMA or non-FMA versions of its libm
// functions by CPU feature; GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA
// makes a process use the non-FMA ones. The test first checks that the
// tunable changes std::tanh's bits on this machine (and skips where it does
// not: a CPU without FMA, or another libc), then fits one small world in a
// child process under each setting and compares model.art byte for byte.
//
// This binary supplies its own main(): run as `<binary> tanh-digest` it
// prints a digest of std::tanh over a fixed sweep, and as `<binary> acbm
// ARGS...` it is the acbm CLI. The test runs both as child processes of its
// own, so the tunable never touches this process.
#include "cli/cli.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/durable.h"

#include <unistd.h>

namespace {

namespace fs = std::filesystem;

constexpr const char* kNoFma = "GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA";

/// FNV-1a over the bits of std::tanh on a dense sweep of [-20, 20].
std::uint64_t std_tanh_digest() {
  constexpr int kPoints = 4'000'000;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < kPoints; ++i) {
    const double x = -20.0 + 40.0 * static_cast<double>(i) / kPoints;
    hash ^= std::bit_cast<std::uint64_t>(std::tanh(x));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("acbm_libm_test_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Runs this binary with `args` through the shell, with `env` (may be
/// empty) prepended; returns its stdout, or nullopt on a non-zero exit.
std::optional<std::string> run_self(const std::string& env,
                                    const std::string& args) {
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) return std::nullopt;
  const std::string command =
      (env.empty() ? "" : env + " ") + "'" + self.string() + "' " + args;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return std::nullopt;
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
  if (::pclose(pipe) != 0) return std::nullopt;
  return out;
}

TEST(LibmIndependence, ModelBytesDoNotDependOnLibmCodePath) {
  const auto plain_digest = run_self("", "tanh-digest");
  const auto no_fma_digest = run_self(kNoFma, "tanh-digest");
  ASSERT_TRUE(plain_digest.has_value());
  ASSERT_TRUE(no_fma_digest.has_value());
  if (*plain_digest == *no_fma_digest) {
    GTEST_SKIP() << kNoFma << " does not change std::tanh's bits here (no "
                 << "FMA on this CPU, or not glibc), so there is nothing to "
                 << "compare";
  }

  const TempDir dir;
  const auto file = [&dir](const char* name) {
    std::string quoted(1, '\'');
    quoted += (dir.path / name).string();
    quoted += '\'';
    return quoted;
  };
  const std::string inputs =
      " --dataset " + file("t.csv") + " --ipmap " + file("m.txt");
  ASSERT_TRUE(run_self("", "acbm generate --seed 7 --days 40" + inputs));
  ASSERT_TRUE(
      run_self("", "acbm fit" + inputs + " --model " + file("plain.art")));
  ASSERT_TRUE(
      run_self(kNoFma, "acbm fit" + inputs + " --model " + file("no_fma.art")));
  const std::string plain =
      acbm::core::durable::read_file(dir.path / "plain.art");
  const std::string no_fma =
      acbm::core::durable::read_file(dir.path / "no_fma.art");
  EXPECT_FALSE(plain.empty());
  EXPECT_TRUE(plain == no_fma)
      << "model.art differs between the default libm and " << kNoFma;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "tanh-digest") {
    std::cout << std::hex << std_tanh_digest() << "\n";
    return 0;
  }
  if (argc > 1 && std::string(argv[1]) == "acbm") {
    const std::vector<std::string> args(argv + 2, argv + argc);
    return acbm::cli::run(args, std::cout, std::cerr);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
