// CLI error contract (ISSUE 3 satellite): clrtool must reject unknown
// subcommands, unknown options, malformed numerics and malformed JSON with a
// non-zero exit code and a one-line actionable message — never a silent
// fallback to defaults and never a crash. The tests drive the real binary
// (CLRTOOL_PATH is injected by the build).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>

namespace {

std::pair<int, std::string> run_tool(const std::string& args) {
  const std::string cmd = std::string(CLRTOOL_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  std::array<char, 4096> buffer{};
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) output += buffer.data();
  const int status = pclose(pipe);
  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return {exit_code, output};
}

TEST(CliErrors, NoArgumentsPrintsUsageAndFails) {
  const auto [code, out] = run_tool("");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(CliErrors, UnknownSubcommandFails) {
  const auto [code, out] = run_tool("frobnicate");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(CliErrors, UnknownOptionFailsInsteadOfSilentlyDefaulting) {
  const auto [code, out] = run_tool("generate --task 5");  // typo for --tasks
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("unknown option --task"), std::string::npos);
}

TEST(CliErrors, MalformedIntegerIsRejectedWithTheOffendingValue) {
  const auto [code, out] = run_tool("generate --tasks abc");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --tasks"), std::string::npos);
  EXPECT_NE(out.find("'abc'"), std::string::npos);
}

TEST(CliErrors, TrailingGarbageInNumberIsRejected) {
  const auto [code, out] = run_tool("generate --tasks 5x");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --tasks"), std::string::npos);
}

TEST(CliErrors, OutOfRangeNumericIsRejected) {
  const auto [code, out] = run_tool("generate --tasks 0");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--tasks"), std::string::npos);
  EXPECT_NE(out.find(">= 1"), std::string::npos);
}

TEST(CliErrors, NonOptionArgumentIsRejected) {
  const auto [code, out] = run_tool("generate tasks");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("expected an --option"), std::string::npos);
}

TEST(CliErrors, MalformedDatabaseJsonFails) {
  const std::string path = ::testing::TempDir() + "clrtool_bad_db.json";
  std::ofstream(path) << "this is { not valid json";
  const auto [code, out] = run_tool("inspect --db " + path);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("clrtool:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliErrors, MissingDatabaseFileFails) {
  const auto [code, out] = run_tool("inspect --db /nonexistent/definitely_missing.json");
  EXPECT_NE(code, 0);
  EXPECT_FALSE(out.empty());
}

TEST(CliErrors, SimulateRejectsUnknownPolicy) {
  const auto [code, out] = run_tool("simulate --db /tmp/whatever.json --policy wishful");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("unknown policy 'wishful'"), std::string::npos);
}

TEST(CliErrors, SimulateRejectsNegativeFaultRate) {
  // Option-layer validation fires before any file I/O for malformed reals.
  const auto [code, out] = run_tool("simulate --db /tmp/whatever.json --fault-rate nope");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --fault-rate"), std::string::npos);
}

TEST(CliErrors, SimulateAndFleetShareTheRuntimeOptionErrors) {
  // One runtime-options block serves both subcommands: each bad value fails
  // before any file I/O with the same option-level message.
  const std::string db = " --db /nonexistent/clrtool_parity.json ";
  for (const std::string bad :
       {"--prc 1.5", "--cycles 0", "--policy wishful", "--fault-rate -1"}) {
    const auto [scode, sout] = run_tool("simulate" + db + bad);
    const auto [fcode, fout] = run_tool("fleet" + db + bad);
    EXPECT_EQ(scode, 1) << bad << ": " << sout;
    EXPECT_EQ(fcode, 1) << bad << ": " << fout;
    EXPECT_EQ(sout, fout) << bad;
    EXPECT_NE(sout.find("clrtool: option --" + bad.substr(2, bad.find(' ') - 2) + ":"),
              std::string::npos)
        << bad << ": " << sout;
  }
}

TEST(CliHappyPath, SimulateAndFleetKeepTheirCyclesDefaults) {
  // The shared block takes the --cycles default per subcommand: 2e5 for a
  // single simulated device, 2e4 for each fleet device.
  const std::string app = " --tasks 5 --seed 3 --pop 8 --gens 2";
  const auto [scode, sout] = run_tool("simulate" + app);
  ASSERT_EQ(scode, 0) << sout;
  EXPECT_NE(sout.find(" 200000 "), std::string::npos) << sout;
  const auto [fcode, fout] = run_tool("fleet --devices 2 --block 1 --jobs 1" + app);
  ASSERT_EQ(fcode, 0) << fout;
  EXPECT_NE(fout.find(" 20000 "), std::string::npos) << fout;
  EXPECT_EQ(fout.find(" 200000 "), std::string::npos) << fout;
}

TEST(CliHappyPath, GenerateSucceeds) {
  const auto [code, out] = run_tool("generate --tasks 5 --seed 3");
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("generated 5-task application"), std::string::npos);
}

TEST(CliTrace, UnknownCategoryIsRejected) {
  const auto [code, out] =
      run_tool("simulate --tasks 5 --trace /tmp/t.json --trace-categories dse,bogus");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("option --trace-categories"), std::string::npos);
  EXPECT_NE(out.find("'bogus'"), std::string::npos);
}

TEST(CliTrace, CategoriesWithoutTraceIsRejected) {
  const auto [code, out] = run_tool("simulate --tasks 5 --trace-categories dse");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--trace-categories requires --trace"), std::string::npos);
}

TEST(CliTrace, SimulateWritesAChromeTraceWithSummary) {
  // The one-shot acceptance path: no --db, so the design flow runs inline and
  // the trace covers DSE + runner + runtime in a single timeline.
  const std::string path = ::testing::TempDir() + "clrtool_trace.json";
  const auto [code, out] = run_tool(
      "simulate --tasks 6 --seed 3 --pop 8 --gens 3 --cycles 2e4 --replications 2 "
      "--jobs 2 --fault-rate 2e-4 --trace " +
      path);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("trace summary"), std::string::npos);
  EXPECT_NE(out.find("written to"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  // DSE generation spans, runner cell spans and runtime QoS events all
  // present in one file — the tentpole's acceptance criterion.
  EXPECT_NE(text.find("\"nsga2.generation\""), std::string::npos);
  EXPECT_NE(text.find("\"exp.cell\""), std::string::npos);
  EXPECT_NE(text.find("\"rt.qos_event\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTrace, CategoriesFilterTheTimeline) {
  const std::string path = ::testing::TempDir() + "clrtool_trace_filtered.json";
  const auto [code, out] = run_tool(
      "simulate --tasks 6 --seed 3 --pop 8 --gens 3 --cycles 1e4 "
      "--trace " + path + " --trace-categories runtime");
  EXPECT_EQ(code, 0) << out;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"rt.qos_event\""), std::string::npos);
  EXPECT_EQ(text.find("\"nsga2.generation\""), std::string::npos);  // dse filtered out
  EXPECT_EQ(text.find("\"exp.cell\""), std::string::npos);          // exp filtered out
  std::remove(path.c_str());
}

TEST(CliSnapshot, ExploreWritesClrdbThatSimulateAndInspectConsume) {
  // End-to-end .clrdb flow: explore persists the binary snapshot (with the
  // DrcMatrix), simulate/inspect load it, and the simulate output is
  // byte-identical to the JSON-database path.
  const std::string clrdb = ::testing::TempDir() + "clrtool_db.clrdb";
  const std::string json = ::testing::TempDir() + "clrtool_db.json";
  const std::string common = "--tasks 6 --seed 5 --pop 8 --gens 3 --db-out ";
  ASSERT_EQ(run_tool("explore " + common + clrdb).first, 0);
  ASSERT_EQ(run_tool("explore " + common + json).first, 0);

  const auto [icode, iout] = run_tool("inspect --db " + clrdb);
  EXPECT_EQ(icode, 0) << iout;
  EXPECT_NE(iout.find("stored design points"), std::string::npos);

  const std::string sim = "simulate --tasks 6 --seed 5 --cycles 5e3 --db ";
  const auto [acode, aout] = run_tool(sim + clrdb);
  const auto [bcode, bout] = run_tool(sim + json);
  EXPECT_EQ(acode, 0) << aout;
  EXPECT_EQ(bcode, 0) << bout;
  EXPECT_EQ(aout, bout);

  std::remove(clrdb.c_str());
  std::remove(json.c_str());
}

TEST(CliSnapshot, CorruptedClrdbFailsWithTypedMessage) {
  const std::string good_path = ::testing::TempDir() + "clrtool_corrupt.clrdb";
  ASSERT_EQ(run_tool("explore --tasks 6 --seed 5 --pop 8 --gens 3 --db-out " + good_path).first,
            0);
  std::ifstream in(good_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
  std::ofstream(good_path, std::ios::binary | std::ios::trunc).write(bytes.data(),
                                                                     bytes.size());
  const auto [code, out] =
      run_tool("simulate --tasks 6 --seed 5 --cycles 5e3 --db " + good_path);
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("snapshot:"), std::string::npos) << out;
  std::remove(good_path.c_str());
}

// --- Checkpoint/resume flags (DESIGN.md §5.12) -------------------------------

TEST(CliCheckpoint, ResumeRequiresCheckpoint) {
  const auto [code, out] = run_tool("explore --tasks 5 --resume");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--resume requires --checkpoint"), std::string::npos);
}

TEST(CliCheckpoint, CheckpointEveryRequiresCheckpoint) {
  const auto [code, out] = run_tool("explore --tasks 5 --checkpoint-every 2");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--checkpoint-every requires --checkpoint"), std::string::npos);
}

TEST(CliCheckpoint, SingleRunSimulateRejectsCheckpointFlags) {
  const auto [code, out] =
      run_tool("simulate --tasks 5 --checkpoint /tmp/x.clrdb");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--replications > 1"), std::string::npos);
}

TEST(CliCheckpoint, StepBudgetInterruptsWithExitCode3AndResumeFinishes) {
  const std::string ckpt = ::testing::TempDir() + "clrtool_ckpt.clrdb";
  const std::string db_full = ::testing::TempDir() + "clrtool_full.clrdb";
  const std::string db_resumed = ::testing::TempDir() + "clrtool_resumed.clrdb";
  std::remove((ckpt + ".a").c_str());
  std::remove((ckpt + ".b").c_str());
  const std::string common = "explore --tasks 6 --seed 5 --pop 8 --gens 4 ";

  // Uninterrupted reference.
  ASSERT_EQ(run_tool(common + "--db-out " + db_full).first, 0);

  // Interrupted leg: exit code 3, actionable message, no db-out yet.
  const auto [icode, iout] = run_tool(common + "--checkpoint " + ckpt +
                                      " --step-budget 3 --db-out " + db_resumed);
  EXPECT_EQ(icode, 3) << iout;
  EXPECT_NE(iout.find("interrupted"), std::string::npos);
  EXPECT_NE(iout.find("--resume to continue"), std::string::npos);
  EXPECT_EQ(std::ifstream(db_resumed).good(), false) << "partial run must not write --db-out";

  // Resume legs share the command line; loop until complete. (The larger
  // budget keeps the leg count small — the red stage spans many boundaries.)
  int code = 3;
  std::string out;
  for (int leg = 0; leg < 32 && code == 3; ++leg) {
    std::tie(code, out) = run_tool(common + "--checkpoint " + ckpt +
                                   " --resume --step-budget 60 --db-out " + db_resumed);
  }
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("resumed from checkpoint"), std::string::npos);

  // The resumed run's database is byte-identical to the uninterrupted one.
  std::ifstream a(db_full, std::ios::binary), b(db_resumed, std::ios::binary);
  ASSERT_TRUE(a.good());
  ASSERT_TRUE(b.good());
  const std::string full_bytes((std::istreambuf_iterator<char>(a)),
                               std::istreambuf_iterator<char>());
  const std::string resumed_bytes((std::istreambuf_iterator<char>(b)),
                                  std::istreambuf_iterator<char>());
  EXPECT_EQ(full_bytes, resumed_bytes);

  std::remove(db_full.c_str());
  std::remove(db_resumed.c_str());
  std::remove((ckpt + ".a").c_str());
  std::remove((ckpt + ".b").c_str());
}

TEST(CliCheckpoint, TimeBudgetRejectsNonPositive) {
  const auto [code, out] = run_tool("explore --tasks 5 --time-budget 0");
  EXPECT_NE(code, 0);
  EXPECT_NE(out.find("--time-budget"), std::string::npos);
}

// --- SIGPIPE / broken stdout hardening ---------------------------------------

TEST(CliBrokenPipe, TruncatedStdoutExitsCleanlyNotViaSignal) {
  // `clrtool ... | head -c 0` closes the read end immediately. The tool must
  // not die of SIGPIPE (exit 141): it either finishes (0) or reports the
  // write error (1).
  const std::string rcfile = ::testing::TempDir() + "clrtool_pipe_rc";
  const std::string cmd = std::string("{ ") + CLRTOOL_PATH +
                          " generate --tasks 5 --seed 3 2>/dev/null; echo $? > " + rcfile +
                          "; } | head -c 0";
  ASSERT_EQ(std::system(cmd.c_str()) != -1, true);
  std::ifstream in(rcfile);
  int rc = -1;
  in >> rc;
  EXPECT_TRUE(rc == 0 || rc == 1) << "exit code " << rc << " (141 would mean death by SIGPIPE)";
  std::remove(rcfile.c_str());
}

TEST(CliBrokenPipe, WriteFailureToFullDeviceIsReported) {
  if (!std::ifstream("/dev/full").good()) GTEST_SKIP() << "/dev/full not available";
  const std::string cmd =
      std::string(CLRTOOL_PATH) + " generate --tasks 5 --seed 3 > /dev/full 2>/tmp/clrtool_err";
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0) << "a failed stdout write must not exit 0";
  std::ifstream err("/tmp/clrtool_err");
  const std::string text((std::istreambuf_iterator<char>(err)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("clrtool:"), std::string::npos) << text;
  std::remove("/tmp/clrtool_err");
}

}  // namespace
