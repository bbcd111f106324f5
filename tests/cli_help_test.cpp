// End-to-end exit-status contract of the example binaries' CLI:
// `--help` is a successful outcome (exit 0, usage on stdout) while an
// unknown flag is an error (exit 1).  Regression test for --help exiting 1,
// which broke `figures_cli --help && ...` shell pipelines.  Runs the real
// figures_cli and telemetry_report binaries, whose paths CMake injects at
// compile time.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace {

int run(const std::string& command) {
  const int status = std::system(command.c_str());
  EXPECT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status)) << command << " did not exit normally";
  return WEXITSTATUS(status);
}

TEST(CliExitStatus, HelpSucceeds) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --help > /dev/null 2>&1"),
            0);
}

TEST(CliExitStatus, HelpPrintsFlagsOnStdout) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --help 2> /dev/null | grep -q flags:"),
            0);
}

TEST(CliExitStatus, UnknownFlagFails) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --no-such-flag > /dev/null 2>&1"),
            1);
}

// Regression: --shard fields and integer env knobs went through bare
// strtoul, so "4x/8" ran as shard 4/8 and an overflowing value silently
// truncated.  All of these must be loud failures now.
TEST(CliExitStatus, ShardTrailingJunkFails) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --all --quick --shard=4x/8 > /dev/null 2>&1"),
            1);
}

TEST(CliExitStatus, ShardOverflowFails) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --all --quick --shard=99999999999999999999/4"
                " > /dev/null 2>&1"),
            1);
}

TEST(CliExitStatus, OverflowingIntFlagFails) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --seed=99999999999999999999 --list > /dev/null 2>&1"),
            1);
}

TEST(CliExitStatus, GarbageEngineThreadsEnvDies) {
  // WORMSIM_THREADS is read by RunOptions::from_env through
  // util::env_u32_or before any simulation; a garbage value must kill the
  // run (abort -> shell exit 134), never be half-parsed as 4.
  EXPECT_NE(run(std::string("WORMSIM_THREADS=4x ") +
                WORMSIM_FIGURES_CLI_PATH +
                " --quick --figure=fig18a > /dev/null 2>&1"),
            0);
}

// Regression: an unknown WORMSIM_FLOW_CONTROL scheme was silently ignored
// and the run printed the credit-scheme table, while --flow-control=bogus
// already exited 1.  The env knob must fail as loudly as the flag.
TEST(CliExitStatus, UnknownFlowControlEnvDies) {
  EXPECT_NE(run(std::string("WORMSIM_FLOW_CONTROL=bogus ") +
                WORMSIM_FIGURES_CLI_PATH +
                " --quick --figure=fig18a > /dev/null 2>&1"),
            0);
}

TEST(CliExitStatus, OverflowSeedEnvDies) {
  EXPECT_NE(run(std::string("WORMSIM_SEED=18446744073709551616 ") +
                WORMSIM_FIGURES_CLI_PATH +
                " --quick --figure=fig18a > /dev/null 2>&1"),
            0);
}

// telemetry_report --dir must fail loudly (exit 1) for every flavor of
// useless directory — missing, empty, and "every file unparseable" (the
// last used to print a bare table header and exit 0).
TEST(CliExitStatus, ReportDirMissingFails) {
  EXPECT_EQ(run(std::string(WORMSIM_TELEMETRY_REPORT_PATH) +
                " --dir=/nonexistent-wormsim-results > /dev/null 2>&1"),
            1);
}

TEST(CliExitStatus, ReportDirEmptyFails) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wormsim_cli_empty_dir";
  std::filesystem::create_directories(dir);
  EXPECT_EQ(run(std::string(WORMSIM_TELEMETRY_REPORT_PATH) + " --dir=" +
                dir.string() + " > /dev/null 2>&1"),
            1);
  std::filesystem::remove_all(dir);
}

TEST(CliExitStatus, ReportDirAllUnparseableFails) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wormsim_cli_bad_dir";
  std::filesystem::create_directories(dir);
  std::ofstream(dir / "broken.json") << "{ not json";
  EXPECT_EQ(run(std::string(WORMSIM_TELEMETRY_REPORT_PATH) + " --dir=" +
                dir.string() + " > /dev/null 2>&1"),
            1);
  std::filesystem::remove_all(dir);
}

}  // namespace
