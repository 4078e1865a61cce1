#include "tools/bcast_cli.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

namespace bcast {
namespace {

constexpr char kExampleTree[] = "(1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))";

int RunCommand(std::vector<std::string> args, std::string* out) {
  return RunCli(args, out);
}

TEST(CliTest, NoArgsPrintsUsage) {
  std::string out;
  EXPECT_EQ(RunCommand({}, &out), 2);
  EXPECT_NE(out.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_EQ(RunCommand({"frobnicate"}, &out), 2);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
}

TEST(CliTest, PlanPaperExampleOptimal) {
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                  "--strategy", "optimal"},
                 &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("strategy          : optimal"), std::string::npos);
  EXPECT_NE(out.find("average data wait : 3.77143"), std::string::npos);
  EXPECT_NE(out.find("C1 |"), std::string::npos);
}

TEST(CliTest, PlanWithSimulation) {
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--simulate", "20000"}, &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("simulated 20000 accesses"), std::string::npos);
}

TEST(CliTest, PlanRejectsBadStrategy) {
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--strategy", "magic"}, &out),
            1);
  EXPECT_NE(out.find("unknown strategy"), std::string::npos);
}

TEST(CliTest, PlanRejectsBadFlagSyntax) {
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree"}, &out), 2);
  EXPECT_NE(out.find("missing a value"), std::string::npos);
  EXPECT_EQ(RunCommand({"plan", "tree", "x"}, &out), 2);
}

TEST(CliTest, PlanRejectsBadChannelCount) {
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--channels", "zero"}, &out),
            1);
  EXPECT_NE(out.find("expects an integer"), std::string::npos);
}

TEST(CliTest, PlanRejectsBadThreadCounts) {
  // plan still validates --threads, although the exact search it feeds is
  // single-threaded. It also sizes the adaptive server's planner threads
  // (>= 1) and the population simulator's (0 = hardware, at most 512).
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--threads", "0"}, &out),
            1);
  EXPECT_NE(out.find("--threads must be >= 1"), std::string::npos);
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--threads=-3"}, &out),
            1);
  EXPECT_NE(out.find("--threads must be >= 1"), std::string::npos);
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--threads", "two"}, &out),
            1);
  EXPECT_NE(out.find("expects an integer"), std::string::npos);
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--threads", "0"}, &out),
            1);
  EXPECT_NE(out.find("--threads must be >= 1"), std::string::npos);
  EXPECT_EQ(RunCommand({"simulate", "--cycles", "2", "--threads", "0"}, &out),
            1);
  EXPECT_NE(out.find("--threads must be >= 1"), std::string::npos);
  EXPECT_EQ(RunCommand({"simulate", "--cycles", "2", "--threads=-3"}, &out),
            1);
  EXPECT_NE(out.find("--threads must be >= 1"), std::string::npos);
  EXPECT_EQ(RunCommand({"simulate", "--cycles", "2", "--threads", "two"}, &out),
            1);
  EXPECT_NE(out.find("expects an integer"), std::string::npos);
  EXPECT_EQ(RunCommand({"popsim", "--tree", kExampleTree, "--threads", "-1"},
                       &out),
            1);
  EXPECT_NE(out.find("--threads must be >= 0"), std::string::npos);
  EXPECT_EQ(RunCommand({"popsim", "--tree", kExampleTree, "--threads", "513"},
                       &out),
            1);
  EXPECT_NE(out.find("--threads must be <= 512"), std::string::npos);
}

TEST(CliTest, PlanWithThreadsMatchesSingleThreadedOutput) {
  std::string single, parallel;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal", "--threads", "1"},
                        &single);
  ASSERT_EQ(code, 0) << single;
  code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                     "--strategy", "optimal", "--threads", "4"},
                    &parallel);
  ASSERT_EQ(code, 0) << parallel;
  // --threads no longer changes the (single-threaded) exact search, so the
  // output is the same character for character.
  EXPECT_EQ(single, parallel);
  EXPECT_NE(parallel.find("average data wait : 3.77143"), std::string::npos);
}

TEST(CliTest, PlanRejectsBadSearchTuningValues) {
  std::string out;
  EXPECT_EQ(
      RunCommand({"plan", "--tree", kExampleTree, "--bound", "tight"}, &out),
      1);
  EXPECT_NE(out.find("unknown bound 'tight'"), std::string::npos);
  EXPECT_NE(out.find("paper-next-slot or packed"), std::string::npos);
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree,
                        "--seed-incumbent=greedy"},
                       &out),
            1);
  EXPECT_NE(out.find("unknown seed-incumbent 'greedy'"), std::string::npos);
  EXPECT_NE(out.find("none, heuristic or previous"), std::string::npos);
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--bound", "x"},
                       &out),
            1);
  EXPECT_NE(out.find("unknown bound 'x'"), std::string::npos);
}

TEST(CliTest, PlanSearchTuningLeavesTheScheduleIdentical) {
  // Both bound estimates are admissible and seeding is a strict upper bound,
  // so every knob combination prints the same plan, character for character.
  std::string baseline;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal"},
                        &baseline);
  ASSERT_EQ(code, 0) << baseline;
  EXPECT_NE(baseline.find("average data wait : 3.77143"), std::string::npos);
  for (const char* bound : {"paper-next-slot", "packed"}) {
    for (const char* seed : {"none", "heuristic", "previous"}) {
      std::string out;
      code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal", "--bound", bound,
                         "--seed-incumbent", seed},
                        &out);
      ASSERT_EQ(code, 0) << out;
      EXPECT_EQ(out, baseline) << bound << "/" << seed;
    }
  }
}

TEST(CliTest, PlanRejectsMalformedTree) {
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", "(broken"}, &out), 1);
  EXPECT_NE(out.find("parse error"), std::string::npos);
}

TEST(CliTest, InfoPrintsTreeStatistics) {
  std::string out;
  int code = RunCommand({"info", "--tree", kExampleTree}, &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("nodes             : 9 (4 index, 5 data)"),
            std::string::npos);
  EXPECT_NE(out.find("depth             : 4 levels"), std::string::npos);
  EXPECT_NE(out.find("total data weight : 70"), std::string::npos);
}

TEST(CliTest, SaveAndEvalRoundTrip) {
  std::string path = ::testing::TempDir() + "/cli_program.txt";
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                  "--strategy", "optimal", "--save", path},
                 &out);
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("saved program to"), std::string::npos);

  std::string eval_out;
  code = RunCommand({"eval", "--program", path}, &eval_out);
  EXPECT_EQ(code, 0) << eval_out;
  EXPECT_NE(eval_out.find("program is feasible"), std::string::npos);
  EXPECT_NE(eval_out.find("average data wait : 3.77143"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, VerifyAcceptsSavedProgram) {
  std::string path = ::testing::TempDir() + "/cli_verify_ok.txt";
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal", "--save", path},
                        &out);
  ASSERT_EQ(code, 0) << out;

  std::string verify_out;
  code = RunCommand({"verify", "--program", path}, &verify_out);
  EXPECT_EQ(code, 0) << verify_out;
  EXPECT_NE(verify_out.find("program is feasible"), std::string::npos);
  EXPECT_NE(verify_out.find("average data wait : 3.77143"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, VerifyReportsAllViolationsOfCorruptProgram) {
  // A grid that duplicates A, drops E, and broadcasts 4 before its parent 3.
  std::string path = ::testing::TempDir() + "/cli_verify_bad.txt";
  {
    std::ofstream file(path);
    file << "bcast-program v1\n"
            "channels 2\n"
            "slots 5\n"
            "tree (1 (2 A:20 B:10) (3 (4 C:15 D:7) E:18))\n"
            "C1 1 4 A C A\n"
            "C2 . 2 3 B D\n";
  }
  std::string out;
  EXPECT_EQ(RunCommand({"verify", "--program", path}, &out), 1);
  EXPECT_NE(out.find("DUPLICATE_PLACEMENT"), std::string::npos) << out;
  EXPECT_NE(out.find("MISSING_NODE"), std::string::npos) << out;
  EXPECT_NE(out.find("ORDER_VIOLATION"), std::string::npos) << out;
  EXPECT_NE(out.find("not feasible"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliTest, VerifyRejectsMalformedSyntax) {
  std::string path = ::testing::TempDir() + "/cli_verify_syntax.txt";
  {
    std::ofstream file(path);
    file << "bcast-program v1\nchannels 2\n";
  }
  std::string out;
  EXPECT_EQ(RunCommand({"verify", "--program", path}, &out), 1);
  EXPECT_NE(out.find("expected 'slots <n>'"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliTest, VerifyRequiresProgramFlag) {
  std::string out;
  EXPECT_EQ(RunCommand({"verify"}, &out), 1);
  EXPECT_NE(out.find("--program is required"), std::string::npos);
}

TEST(CliTest, EvalRejectsMissingFile) {
  std::string out;
  EXPECT_EQ(RunCommand({"eval", "--program", "/nonexistent/path.txt"}, &out), 1);
  EXPECT_NE(out.find("cannot open"), std::string::npos);
}

TEST(CliTest, TreeFileInput) {
  std::string path = ::testing::TempDir() + "/cli_tree.txt";
  {
    std::ofstream file(path);
    file << kExampleTree;
  }
  std::string out;
  EXPECT_EQ(RunCommand({"info", "--tree-file", path}, &out), 0) << out;
  EXPECT_NE(out.find("nodes             : 9"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, SimulateLosslessReportsFullDelivery) {
  std::string out;
  int code = RunCommand({"simulate", "--tree", kExampleTree, "--channels", "2",
                         "--queries", "5000"},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("loss model        : none"), std::string::npos);
  EXPECT_NE(out.find("success rate      : 100% (5000 delivered)"),
            std::string::npos);
  EXPECT_NE(out.find("faults observed   : 0 lost, 0 corrupted"),
            std::string::npos);
}

TEST(CliTest, SimulateBernoulliLossEngagesRecovery) {
  std::string out;
  int code = RunCommand(
      {"simulate", "--tree", kExampleTree, "--channels", "2", "--queries",
       "5000", "--loss-model", "bernoulli", "--loss-rate", "0.1"},
      &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("loss model        : bernoulli (stationary loss rate 10%"),
            std::string::npos);
  EXPECT_NE(out.find("access time tail  : p50 "), std::string::npos);
  EXPECT_EQ(out.find("faults observed   : 0 lost"), std::string::npos) << out;
}

TEST(CliTest, SimulateAcceptsEqualsFlagSyntaxAndGilbertElliott) {
  std::string out;
  int code = RunCommand({"simulate", "--tree", kExampleTree,
                         "--loss-model=gilbert-elliott", "--ge-good-to-bad=0.05",
                         "--ge-bad-to-good=0.5", "--queries=2000"},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("loss model        : gilbert-elliott"), std::string::npos);
}

TEST(CliTest, SimulateIsDeterministicUnderFixedSeed) {
  std::vector<std::string> args = {
      "simulate",     "--tree",     kExampleTree, "--channels", "2",
      "--queries",    "3000",       "--seed",     "42",         "--loss-model",
      "bernoulli",    "--loss-rate", "0.2"};
  std::string first, second;
  ASSERT_EQ(RunCommand(args, &first), 0) << first;
  ASSERT_EQ(RunCommand(args, &second), 0);
  EXPECT_EQ(first, second);
}

TEST(CliTest, SimulateWithReplicationReportsReplicaLayout) {
  std::string out;
  int code = RunCommand({"simulate", "--tree", kExampleTree, "--channels", "2",
                         "--queries", "2000", "--replicate-copies", "2",
                         "--loss-model", "bernoulli", "--loss-rate", "0.1"},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("replication       : 2 copies"), std::string::npos);
}

TEST(CliTest, SimulateRejectsBadLossModelAndRates) {
  std::string out;
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--loss-model",
                        "solar-flare"},
                       &out),
            1);
  EXPECT_NE(out.find("unknown loss model"), std::string::npos);
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--loss-model",
                        "bernoulli", "--loss-rate", "1.5"},
                       &out),
            1);
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--queries", "0"},
                       &out),
            1);
}

TEST(CliTest, SimulateRejectsNegativeRecoveryBudgets) {
  std::string out;
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--retries", "-1"},
                       &out),
            1);
  EXPECT_NE(out.find("--retries must be >= 0"), std::string::npos) << out;
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--restarts", "-1"},
                       &out),
            1);
  EXPECT_NE(out.find("--restarts must be >= 0"), std::string::npos) << out;
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--scan-passes",
                        "-1"},
                       &out),
            1);
  EXPECT_NE(out.find("--scan-passes must be >= 0"), std::string::npos) << out;
}

TEST(CliTest, SimulateRunsOnSavedProgramFile) {
  std::string path = ::testing::TempDir() + "/cli_sim_program.txt";
  std::string out;
  ASSERT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                        "--strategy", "optimal", "--save", path},
                       &out),
            0);
  std::string sim_out;
  int code = RunCommand({"simulate", "--program", path, "--queries", "2000",
                         "--loss-model", "bernoulli", "--loss-rate", "0.05"},
                        &sim_out);
  EXPECT_EQ(code, 0) << sim_out;
  EXPECT_NE(sim_out.find("program           : "), std::string::npos);
  // Replication needs a plan, not a frozen grid.
  std::string repl_out;
  EXPECT_EQ(RunCommand({"simulate", "--program", path, "--replicate-copies",
                        "2"},
                       &repl_out),
            1);
  EXPECT_NE(repl_out.find("--replicate-copies needs a --tree plan"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, TreeAndTreeFileAreExclusive) {
  std::string out;
  EXPECT_EQ(
      RunCommand({"info", "--tree", kExampleTree, "--tree-file", "x.txt"}, &out), 1);
  EXPECT_NE(out.find("exactly one"), std::string::npos);
}

TEST(CliTest, DuplicateFlagsAreRejected) {
  // Silently keeping the last occurrence hid typos like
  // `--channels 2 ... --channels 3`; a repeat is now a parse error in both
  // spellings, and mixing the two spellings of one flag is equally a repeat.
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                        "--channels", "3"},
                       &out),
            2);
  EXPECT_NE(out.find("duplicate flag --channels"), std::string::npos);
  out.clear();
  EXPECT_EQ(RunCommand({"plan", "--channels=2", "--channels=3"}, &out), 2);
  EXPECT_NE(out.find("duplicate flag --channels"), std::string::npos);
  out.clear();
  EXPECT_EQ(RunCommand({"plan", "--channels=2", "--channels", "3"}, &out), 2);
  EXPECT_NE(out.find("duplicate flag --channels"), std::string::npos);
}

TEST(CliTest, MetricsOutWritesVersionedSnapshot) {
  std::string path = ::testing::TempDir() + "/cli_metrics.json";
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal", "--threads", "2",
                         "--metrics-out", path},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("wrote metrics to " + path), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"bcast_metrics_version\": 2"), std::string::npos);
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos) << json;
  // A plan publishes its live search counters; the census (pruning.*) runs
  // only under `stats`.
  EXPECT_NE(json.find("\"search.topo_dfs.pruned.property3\""),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"pruning."), std::string::npos) << json;
  EXPECT_NE(json.find("\"planner.plans\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"command\": \"plan\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, TraceOutWritesChromeTrace) {
  std::string path = ::testing::TempDir() + "/cli_trace.json";
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--trace-out", path},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("wrote trace to " + path), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, StatsSubcommandDumpsCounters) {
  std::string out;
  int code = RunCommand({"stats", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal"},
                        &out);
  EXPECT_EQ(code, 0) << out;
  // Plan output first, then the human-readable metrics dump.
  EXPECT_NE(out.find("average data wait"), std::string::npos);
  EXPECT_NE(out.find("metrics snapshot"), std::string::npos);
  EXPECT_NE(out.find("planner.plans"), std::string::npos);
  EXPECT_NE(out.find("pruning.property3"), std::string::npos);
}

TEST(CliTest, StatsMarksAnOversizedCensusTruncated) {
  // 49 nodes (3 x 3 index nodes over 36 leaves): the plan is a quick
  // heuristic, but the reduced topological tree runs past the census limit.
  std::string tree = "(r";
  for (int i = 0; i < 3; ++i) {
    tree += " (i" + std::to_string(i);
    for (int j = 0; j < 3; ++j) {
      tree += " (j" + std::to_string(i) + std::to_string(j);
      for (int leaf = 0; leaf < 4; ++leaf) {
        tree += " d" + std::to_string(i) + std::to_string(j) +
                std::to_string(leaf) + ":" + std::to_string(1 + leaf + j);
      }
      tree += ")";
    }
    tree += ")";
  }
  tree += ")";
  std::string out;
  int code = RunCommand({"stats", "--tree", tree, "--channels", "2",
                         "--strategy", "sorting"},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("pruning.breakdown_truncated"), std::string::npos) << out;
  EXPECT_EQ(out.find("pruning.property3"), std::string::npos) << out;
}

TEST(CliTest, SimulateSnapshotCarriesSeedAndDrawCounts) {
  std::string path = ::testing::TempDir() + "/cli_sim_metrics.json";
  std::string out;
  int code = RunCommand({"simulate", "--tree", kExampleTree, "--queries",
                         "500", "--seed", "99", "--metrics-out", path},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("(seed 99)"), std::string::npos);
  EXPECT_NE(out.find("rng draws         : 1000 query, 0 fault"),
            std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // The seed travels as meta only (schema version 2 has no gauges).
  EXPECT_NE(json.find("\"seed\": \"99\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_EQ(json.find("run.seed"), std::string::npos) << json;
  // One sampler draw + one arrival draw per query on this lossless run;
  // the tree substream is registered even when unused.
  EXPECT_NE(json.find("\"rng.draws.query\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"rng.draws.fault\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"rng.draws.tree\": 0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTest, PlanBudgetFlagValidation) {
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree,
                        "--plan-budget-expansions", "0"},
                       &out),
            1);
  EXPECT_NE(out.find("--plan-budget-expansions must be >= 1"),
            std::string::npos);
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree,
                        "--plan-budget-expansions=-4"},
                       &out),
            1);
  EXPECT_NE(out.find("--plan-budget-expansions must be >= 1"),
            std::string::npos);
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree,
                        "--plan-deadline-ms", "0"},
                       &out),
            1);
  EXPECT_NE(out.find("--plan-deadline-ms must be >= 1"), std::string::npos);
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree,
                        "--plan-deadline-ms=-5"},
                       &out),
            1);
  EXPECT_NE(out.find("--plan-deadline-ms must be >= 1"), std::string::npos);
}

TEST(CliTest, PlanBudgetAndDeadlineAreMutuallyExclusive) {
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree,
                        "--plan-budget-expansions", "10", "--plan-deadline-ms",
                        "5"},
                       &out),
            1);
  EXPECT_NE(out.find("mutually exclusive"), std::string::npos);
}

TEST(CliTest, PlanRejectsUnknownDegradePolicy) {
  std::string out;
  EXPECT_EQ(
      RunCommand({"plan", "--tree", kExampleTree, "--degrade", "maybe"}, &out),
      1);
  EXPECT_NE(out.find("unknown degrade policy 'maybe'"), std::string::npos);
  EXPECT_NE(out.find("off, anytime or heuristic"), std::string::npos);
}

TEST(CliTest, DegradedPlanExitsThreeAndPrintsProvenance) {
  // One expansion cannot finish the exact search on this tree: the ladder
  // serves the heuristic, the CLI says so, and exits 3 (served, degraded).
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal", "--plan-budget-expansions",
                         "1"},
                        &out);
  EXPECT_EQ(code, 3) << out;
  EXPECT_NE(out.find("provenance        : heuristic (degraded)"),
            std::string::npos);
  EXPECT_NE(out.find("optimum in ["), std::string::npos);
}

TEST(CliTest, GenerousBudgetStaysExactAndExitsZero) {
  std::string budgeted, unbudgeted;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal", "--plan-budget-expansions",
                         "100000000"},
                        &budgeted);
  EXPECT_EQ(code, 0) << budgeted;
  EXPECT_EQ(budgeted.find("provenance"), std::string::npos);
  code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                     "--strategy", "optimal"},
                    &unbudgeted);
  ASSERT_EQ(code, 0);
  EXPECT_EQ(budgeted, unbudgeted);
}

TEST(CliTest, DegradeOffMakesBudgetExhaustionAHardError) {
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--channels", "2",
                         "--strategy", "optimal", "--plan-budget-expansions",
                         "1", "--degrade", "off"},
                        &out);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("error:"), std::string::npos);
}

TEST(CliTest, SimulateAcceptsPlanBudgetFlags) {
  std::string out;
  int code = RunCommand({"simulate", "--tree", kExampleTree, "--channels",
                         "2", "--strategy", "optimal", "--queries", "200",
                         "--plan-budget-expansions", "1"},
                        &out);
  EXPECT_EQ(code, 3) << out;
  EXPECT_NE(out.find("provenance        : heuristic (degraded)"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Streaming telemetry: fail-fast report paths, --telemetry-out/--slo, the
// adaptive `simulate --cycles` mode and `top --replay`.
// ---------------------------------------------------------------------------

// First line of `text` containing `needle`; empty when absent.
std::string LineContaining(const std::string& text, const std::string& needle) {
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return {};
  size_t end = text.find('\n', pos);
  return text.substr(pos, end == std::string::npos ? end : end - pos);
}

TEST(CliTest, MetricsOutUnwritablePathFailsBeforeTheRun) {
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--metrics-out",
                         "/nonexistent_dir_xyz/metrics.json"},
                        &out);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("cannot open for writing"), std::string::npos) << out;
  // Fail-fast: the plan itself never ran.
  EXPECT_EQ(out.find("average data wait"), std::string::npos) << out;
}

TEST(CliTest, TraceOutUnwritablePathFailsBeforeTheRun) {
  std::string out;
  int code = RunCommand({"plan", "--tree", kExampleTree, "--trace-out",
                         "/nonexistent_dir_xyz/trace.json"},
                        &out);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("cannot open for writing"), std::string::npos) << out;
  EXPECT_EQ(out.find("average data wait"), std::string::npos) << out;
}

TEST(CliTest, TelemetryOutUnwritablePathFailsBeforeTheRun) {
  std::string out;
  int code = RunCommand({"simulate", "--cycles", "3", "--items", "8",
                         "--queries-per-cycle", "20", "--telemetry-out",
                         "/nonexistent_dir_xyz/run.jsonl"},
                        &out);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("cannot open for writing"), std::string::npos) << out;
  EXPECT_EQ(out.find("adaptive server"), std::string::npos) << out;
}

TEST(CliTest, SloWithoutTelemetryOutIsAnError) {
  std::string out;
  int code = RunCommand({"simulate", "--cycles", "3", "--slo",
                         "d:sim.delivery_rate>=0.99"},
                        &out);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("--slo requires --telemetry-out"), std::string::npos);
}

TEST(CliTest, BadSloSpecIsAStartupError) {
  std::string path = ::testing::TempDir() + "/cli_bad_slo.jsonl";
  std::string out;
  int code = RunCommand({"simulate", "--cycles", "3", "--telemetry-out", path,
                         "--slo", "notaspec"},
                        &out);
  EXPECT_EQ(code, 1) << out;
  EXPECT_EQ(out.find("adaptive server"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliTest, TelemetryOutRejectedOnNonStreamingCommands) {
  std::string path = ::testing::TempDir() + "/cli_plan_telemetry.jsonl";
  std::string out;
  EXPECT_EQ(RunCommand({"plan", "--tree", kExampleTree, "--telemetry-out",
                        path},
                       &out),
            1);
  EXPECT_NE(out.find("only supported by"), std::string::npos) << out;
  // Per-query simulate has no cycle ordinal to tick on.
  out.clear();
  EXPECT_EQ(RunCommand({"simulate", "--tree", kExampleTree, "--queries",
                        "100", "--telemetry-out", path},
                       &out),
            1);
  EXPECT_NE(out.find("requires --cycles"), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(CliTest, AdaptiveSimulateRuns) {
  std::string out;
  int code = RunCommand({"simulate", "--cycles", "6", "--items", "8",
                         "--queries-per-cycle", "50", "--seed", "21"},
                        &out);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("adaptive server   : 6 cycle(s)"), std::string::npos);
  EXPECT_NE(out.find("served provenance : exact"), std::string::npos);
}

TEST(CliTest, AdaptiveTelemetryStreamAndTopReplay) {
  std::string path = ::testing::TempDir() + "/cli_adaptive_telemetry.jsonl";
  std::string out;
  // A threshold no cycle can meet: the SLO must fire at least once.
  int code = RunCommand({"simulate", "--cycles", "8", "--items", "8",
                         "--queries-per-cycle", "50", "--seed", "21",
                         "--telemetry-out", path, "--slo",
                         "wait:sim.realized_wait<=0.0001@0.5/4"},
                        &out);
  EXPECT_EQ(code, 0) << out;
  std::string wrote = LineContaining(out, "wrote telemetry to");
  EXPECT_NE(wrote.find("8 ticks"), std::string::npos) << out;
  EXPECT_EQ(wrote.find(" 0 alerts"), std::string::npos)
      << "the impossible SLO never fired: " << out;

  std::string top;
  code = RunCommand({"top", "--replay", path}, &top);
  EXPECT_EQ(code, 0) << top;
  EXPECT_NE(top.find("source adaptive_server"), std::string::npos) << top;
  EXPECT_NE(top.find("ticks             : 8"), std::string::npos) << top;
  EXPECT_NE(top.find("sim.realized_wait"), std::string::npos) << top;
  EXPECT_NE(top.find("slos:"), std::string::npos) << top;
  EXPECT_NE(top.find("wait"), std::string::npos) << top;
  EXPECT_NE(top.find("rungs             : exact"), std::string::npos) << top;
  EXPECT_NE(top.find("outcome ok"), std::string::npos) << top;

  // Round trip: replaying the same stream again renders identical series.
  std::string top_again;
  EXPECT_EQ(RunCommand({"top", "--replay", path}, &top_again), 0);
  EXPECT_EQ(top, top_again);
  std::remove(path.c_str());
}

TEST(CliTest, TopRequiresReplay) {
  std::string out;
  EXPECT_EQ(RunCommand({"top"}, &out), 1);
  EXPECT_NE(out.find("--replay"), std::string::npos);
}

TEST(CliTest, PopsimTelemetryKeepsDigestIdentical) {
  // The CLI face of the determinism acceptance bar: the outcome digest is
  // identical with and without --telemetry-out, at 1 and 8 threads.
  std::string path = ::testing::TempDir() + "/cli_popsim_telemetry.jsonl";
  std::string reference;
  for (int threads : {1, 8}) {
    const std::string threads_str = std::to_string(threads);
    std::string plain_out;
    int code = RunCommand({"popsim", "--tree", kExampleTree, "--channels",
                           "2", "--clients", "2000", "--seed", "5",
                           "--threads", threads_str},
                          &plain_out);
    ASSERT_EQ(code, 0) << plain_out;
    std::string digest = LineContaining(plain_out, "outcome digest");
    ASSERT_FALSE(digest.empty()) << plain_out;

    std::string telemetry_out;
    code = RunCommand({"popsim", "--tree", kExampleTree, "--channels", "2",
                       "--clients", "2000", "--seed", "5", "--threads",
                       threads_str, "--telemetry-out", path},
                      &telemetry_out);
    ASSERT_EQ(code, 0) << telemetry_out;
    EXPECT_EQ(LineContaining(telemetry_out, "outcome digest"), digest);
    EXPECT_NE(telemetry_out.find("wrote telemetry to"), std::string::npos);

    if (reference.empty()) reference = digest;
    EXPECT_EQ(digest, reference);
  }
  // The stream replays: one tick per shard, popsim source.
  std::string top;
  EXPECT_EQ(RunCommand({"top", "--replay", path}, &top), 0) << top;
  EXPECT_NE(top.find("source popsim"), std::string::npos) << top;
  EXPECT_NE(top.find("popsim.shard.clients"), std::string::npos) << top;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bcast
