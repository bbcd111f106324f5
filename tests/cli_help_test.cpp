// End-to-end exit-status contract of the example binaries' CLI:
// `--help` is a successful outcome (exit 0, usage on stdout) while an
// unknown flag is an error (exit 1).  Regression test for --help exiting 1,
// which broke `figures_cli --help && ...` shell pipelines.  Runs the real
// figures_cli, telemetry_report and quickstart binaries, whose paths CMake
// injects at compile time.
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
  // WORMSIM_THREADS is read by the knob binder through util::parse_u32
  // before any simulation; a garbage value must kill the run (abort ->
  // shell exit 134), never be half-parsed as 4.
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

// Regression: the --seed flag's built-in default overwrote WORMSIM_SEED,
// so the variable was silently ignored.  A flag's default is now its
// variable: the env run must match --seed=5 and differ from the default.
TEST(CliExitStatus, SeedEnvReachesFiguresCli) {
  const std::string cli = std::string(WORMSIM_FIGURES_CLI_PATH) +
                          " --quick --figure=fig18a 2> /dev/null > ";
  const std::string dir = testing::TempDir();
  ASSERT_EQ(run("WORMSIM_SEED=5 " + cli + dir + "seed_env.txt"), 0);
  ASSERT_EQ(run(cli + dir + "seed_flag.txt --seed=5"), 0);
  ASSERT_EQ(run(cli + dir + "seed_default.txt"), 0);
  EXPECT_EQ(run("cmp -s " + dir + "seed_env.txt " + dir + "seed_flag.txt"), 0);
  EXPECT_NE(run("cmp -s " + dir + "seed_env.txt " + dir + "seed_default.txt"),
            0);
}

// Regression: integer flags went through strtoll and a sentinel check,
// so a negative depth silently ran at depth 1 and --seed=-1 ran with
// seed 2^64-1.  Both are bad values now.
TEST(CliExitStatus, NegativeBufferDepthFails) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --buffer-depth=-5 --list > /dev/null 2>&1"),
            1);
}

TEST(CliExitStatus, NegativeSeedFails) {
  EXPECT_EQ(run(std::string(WORMSIM_FIGURES_CLI_PATH) +
                " --seed=-1 --list > /dev/null 2>&1"),
            1);
}

// Regression: quickstart declared its own scenario flags and never read
// the variables, so a bogus scheme in the environment ran the credit
// table and exited 0.
TEST(CliExitStatus, QuickstartUnknownFlowControlEnvDies) {
  EXPECT_NE(run(std::string("WORMSIM_FLOW_CONTROL=bogus ") +
                WORMSIM_QUICKSTART_PATH + " --cycles=100 > /dev/null 2>&1"),
            0);
}

TEST(CliExitStatus, OverflowSeedEnvDies) {
  EXPECT_NE(run(std::string("WORMSIM_SEED=18446744073709551616 ") +
                WORMSIM_FIGURES_CLI_PATH +
                " --quick --figure=fig18a > /dev/null 2>&1"),
            0);
}

// Regression: the engines re-read WORMSIM_HEARTBEAT over the config, so
// --heartbeat-cycles=0 could not switch a set variable off (fig18a still
// wrote 12 streams).  The variable is only the flag's default now.
TEST(CliExitStatus, HeartbeatFlagZeroBeatsEnv) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "wormsim_cli_hb_off";
  std::filesystem::remove_all(dir);
  ASSERT_EQ(run(std::string("WORMSIM_HEARTBEAT=1000 ") +
                WORMSIM_FIGURES_CLI_PATH +
                " --quick --figure=fig18a --heartbeat-cycles=0"
                " --heartbeat-dir=" + dir.string() + " > /dev/null 2>&1"),
            0);
  std::size_t streams = 0;
  if (std::filesystem::exists(dir)) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(dir)) {
      streams += entry.path().extension() == ".ndjson" ? 1 : 0;
    }
  }
  EXPECT_EQ(streams, 0u);
  std::filesystem::remove_all(dir);
}

// Regression: likewise WORMSIM_PROFILE=1 kept the profiler on under
// --profile=false.  The variable alone still prints the phase tables.
TEST(CliExitStatus, ProfileFlagFalseBeatsEnv) {
  const std::string report = std::string("WORMSIM_PROFILE=1 ") +
                             WORMSIM_TELEMETRY_REPORT_PATH +
                             " --quick --figure=fig18a --load=0.3";
  const std::string on = testing::TempDir() + "profile_env_on.txt";
  const std::string off = testing::TempDir() + "profile_flag_off.txt";
  ASSERT_EQ(run(report + " > " + on + " 2> /dev/null"), 0);
  ASSERT_EQ(run(report + " --profile=false > " + off + " 2> /dev/null"), 0);
  EXPECT_EQ(run("grep -q engine_phase " + on), 0);
  EXPECT_NE(run("grep -q engine_phase " + off), 0);
}

// Regression: --stalls --profile ran every series with the phase
// profiler on and dropped the profile; its table now follows each
// series' stall report.
TEST(CliExitStatus, StallsWithProfilePrintThePhaseTable) {
  const std::string out = testing::TempDir() + "stalls_profile.txt";
  ASSERT_EQ(run(std::string(WORMSIM_TELEMETRY_REPORT_PATH) +
                " --quick --figure=ablation_credit_delay --stalls --profile"
                " > " + out + " 2> /dev/null"),
            0);
  EXPECT_EQ(run("grep -q 'credit starvation' " + out), 0);
  EXPECT_EQ(run("grep -q engine_phase " + out), 0);
}

// Regression: the engines' own reader took any value but "0" as on, so a
// mistyped WORMSIM_VALIDATE ran validated and exited 0.  It now aborts
// naming the variable, like every other knob.
TEST(CliExitStatus, BogusValidateEnvDiesNamingIt) {
  const std::string err = testing::TempDir() + "validate_bogus.txt";
  EXPECT_NE(run(std::string("WORMSIM_VALIDATE=bogus ") +
                WORMSIM_QUICKSTART_PATH + " --cycles=100 > /dev/null 2> " +
                err),
            0);
  EXPECT_EQ(run("grep -q WORMSIM_VALIDATE " + err), 0);
}

// Regression: the heatmap aborted (exit 134) on the store-and-forward
// series, which keeps no per-lane counters.
TEST(CliExitStatus, ReportStoreForwardFigureSucceeds) {
  EXPECT_EQ(run(std::string(WORMSIM_TELEMETRY_REPORT_PATH) +
                " --quick --figure=ablation_switching > /dev/null 2>&1"),
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

TEST(CliExitStatus, ReportDirOneUnparseableFails) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wormsim_cli_mixed_dir";
  std::filesystem::create_directories(dir);
  const std::string report = std::string(WORMSIM_TELEMETRY_REPORT_PATH) +
                             " --dir=" + dir.string() + " > /dev/null 2>&1";
  std::ofstream(dir / "good.json")
      << R"({"id":"probe","schema_version":2,"seed":1,"git_revision":"x",)"
      << R"("series":[],"cycles_per_second":0})";
  EXPECT_EQ(run(report), 0);
  std::ofstream(dir / "broken.json") << "{ not json";
  EXPECT_EQ(run(report), 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
