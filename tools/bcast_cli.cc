#include "tools/bcast_cli.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string_view>

#include <chrono>
#include <cstdio>

#include "core/bcast.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/slo.h"
#include "obs/stream.h"
#include "popsim/popsim.h"
#include "sim/server_sim.h"

namespace bcast {

namespace {

constexpr char kUsage[] =
    "usage:\n"
    "  bcastctl plan --tree <s-expr>|--tree-file <path> [--channels k]\n"
    "                [--strategy auto|optimal|sorting|shrinking|level|\n"
    "                 preorder|greedy-weight] [--simulate N]\n"
    "                [--bound paper-next-slot|packed]\n"
    "                [--seed-incumbent none|heuristic|previous]\n"
    "                [--plan-budget-expansions B | --plan-deadline-ms D]\n"
    "                [--degrade off|anytime|heuristic]\n"
    "                [--save <path>]\n"
    "  bcastctl simulate --tree <s-expr>|--tree-file <path>|--program <path>\n"
    "                [--channels k] [--strategy ...]\n"
    "                [--bound ...] [--seed-incumbent ...]\n"
    "                [--plan-budget-expansions B | --plan-deadline-ms D]\n"
    "                [--degrade ...]\n"
    "                [--queries N] [--seed S]\n"
    "                [--replicate-copies R] [--replicate-levels L]\n"
    "                [--loss-model none|bernoulli|gilbert-elliott]\n"
    "                [--loss-rate p] [--corrupt-fraction f]\n"
    "                [--ge-good-to-bad p] [--ge-bad-to-good p]\n"
    "                [--ge-loss-good p] [--ge-loss-bad p]\n"
    "                [--retries n] [--restarts n] [--scan-passes n]\n"
    "  bcastctl simulate --cycles N   # adaptive-server mode: drifting true\n"
    "                weights, per-cycle replanning (no --tree; the catalog\n"
    "                is built from --items weights)\n"
    "                [--items N] [--queries-per-cycle N] [--replan-every R]\n"
    "                [--estimator-decay d] [--drift-every D] [--channels k]\n"
    "                [--strategy ...] [--threads N] [--seed S]\n"
    "                [--plan-budget-expansions B] [--degrade ...]\n"
    "                [--loss-model ... and other --loss flags for the\n"
    "                 downlink medium]\n"
    "  bcastctl popsim --tree <s-expr>|--tree-file <path>|--program <path>\n"
    "                [--channels k] [--strategy ...] [--threads N] [--shards S]\n"
    "                [--replicate-copies R] [--replicate-levels L]\n"
    "                [--clients N] [--seed S]\n"
    "                [--interest tree|zipf|uniform] [--zipf-theta t]\n"
    "                [--horizon-cycles H] [--doze-fraction f]\n"
    "                [--doze-max-cycles C] [--degraded-fraction f]\n"
    "                [--loss-model ...] [--loss-rate p] [--corrupt-fraction f]\n"
    "                [--ge-* p] [--degraded-loss-model ... and other\n"
    "                 --degraded-* loss flags for the degraded subset]\n"
    "                [--retries n] [--restarts n] [--scan-passes n]\n"
    "  bcastctl eval --program <path> [--simulate N]\n"
    "  bcastctl verify --program <path>\n"
    "  bcastctl info --tree <s-expr>|--tree-file <path>\n"
    "  bcastctl stats <plan flags>   # plan, then dump collected metrics and\n"
    "                              # the pruning census (pruning.*)\n"
    "  bcastctl top --replay <file.jsonl> [--window N]\n"
    "                # render a telemetry stream as a dashboard: per-series\n"
    "                # sparklines, SLO burn/budget bars, degradation rungs\n"
    "\n"
    "every command also accepts:\n"
    "  --metrics-out <path>   write a metrics snapshot (JSON, see\n"
    "                         docs/FORMATS.md) collected over the command\n"
    "  --trace-out <path>     write spans as a Chrome trace_event file\n"
    "                         (load in chrome://tracing or Perfetto)\n"
    "\n"
    "simulate --cycles and popsim also accept:\n"
    "  --telemetry-out <path> stream per-cycle / per-shard telemetry as\n"
    "                         JSONL (schema in docs/FORMATS.md); replay it\n"
    "                         with `bcastctl top --replay <path>`\n"
    "  --slo <spec[;spec]>    SLO burn-rate specs evaluated on the stream,\n"
    "                         e.g. 'delivery:sim.delivery_rate>=0.99@0.9/20'\n"
    "                         (grammar: NAME:SERIES<=|>=THRESH[@TARGET][/WIN])\n"
    "\n"
    "a flag that the command does not take (a typo, or a flag of another\n"
    "command) is rejected with exit code 2 before the command runs\n"
    "\n"
    "exit codes: 0 ok, 1 error, 2 usage, 3 ok but the planner degraded\n"
    "(budget/deadline fired; an anytime, heuristic or stale plan was served)\n";

// Flags every command takes: RunCli's observability brackets and telemetry
// stream (the commands that cannot stream reject --telemetry-out themselves).
constexpr std::string_view kCommonFlags[] = {"metrics-out", "trace-out", "telemetry-out",
                                             "slo"};
constexpr std::string_view kTreeFlags[] = {"tree", "tree-file"};
constexpr std::string_view kPlanFlags[] = {
    "channels", "strategy", "bound", "seed-incumbent", "plan-budget-expansions",
    "plan-deadline-ms", "degrade"};
constexpr std::string_view kLossFlags[] = {
    "loss-model", "loss-rate", "corrupt-fraction", "ge-good-to-bad", "ge-bad-to-good",
    "ge-loss-good", "ge-loss-bad"};
// What `simulate` and `popsim` share (LoadClientRun), beside a program source.
constexpr std::string_view kClientRunFlags[] = {
    "seed", "retries", "restarts", "scan-passes", "replicate-copies", "replicate-levels"};
constexpr std::string_view kAdaptiveFlags[] = {
    "cycles", "items", "queries-per-cycle", "replan-every", "estimator-decay",
    "drift-every", "seed", "channels", "strategy", "threads",
    "plan-budget-expansions", "plan-deadline-ms", "degrade"};
constexpr std::string_view kPopSimFlags[] = {
    "clients", "interest", "zipf-theta", "horizon-cycles", "doze-fraction",
    "doze-max-cycles", "degraded-fraction", "threads", "shards"};

// The flags `command` takes when called with the flags `given`: `simulate
// --cycles` is a mode of its own, and `simulate` and `popsim` take the
// planner's flags only when they plan a --tree rather than load a
// --program. std::nullopt for an unknown command.
std::optional<std::set<std::string>> CommandFlags(
    const std::string& command,
    const std::map<std::string, std::string>& given) {
  std::set<std::string> flags;
  auto add = [&flags](std::span<const std::string_view> names,
                      std::string_view prefix = "") {
    for (std::string_view name : names) {
      flags.insert(std::string(prefix) + std::string(name));
    }
  };
  add(kCommonFlags);
  if (command == "plan" || command == "stats") {
    add(kTreeFlags);
    add(kPlanFlags);
    flags.insert({"simulate", "save"});
  } else if (command == "simulate" && given.count("cycles") != 0) {
    add(kAdaptiveFlags);
    add(kLossFlags);
  } else if (command == "simulate" || command == "popsim") {
    add(kClientRunFlags);
    add(kLossFlags);
    if (given.count("program") != 0) {
      flags.insert("program");
    } else {
      add(kTreeFlags);
      add(kPlanFlags);
    }
    if (command == "simulate") {
      flags.insert("queries");
    } else {
      add(kPopSimFlags);
      add(kLossFlags, "degraded-");
    }
  } else if (command == "info") {
    add(kTreeFlags);
  } else if (command == "eval") {
    flags.insert({"program", "simulate"});
  } else if (command == "verify") {
    flags.insert("program");
  } else if (command == "top") {
    flags.insert({"replay", "window"});
  } else {
    return std::nullopt;
  }
  return flags;
}

// Parsed flag/value pairs of the command `args[0]`; accepts both "--flag
// value" and "--flag=value". Parse rejects an unknown command and any flag
// the command does not take (a typo, or a flag meant for another command),
// so no command runs with a flag silently ignored.
class FlagMap {
 public:
  static Result<FlagMap> Parse(const std::vector<std::string>& args) {
    FlagMap flags;
    for (size_t i = 1; i < args.size(); ++i) {
      if (args[i].rfind("--", 0) != 0) {
        return InvalidArgumentError("expected a --flag, got '" + args[i] + "'");
      }
      size_t equals = args[i].find('=');
      if (equals != std::string::npos) {
        std::string name = args[i].substr(2, equals - 2);
        if (flags.values_.count(name) != 0) {
          return InvalidArgumentError("duplicate flag --" + name);
        }
        flags.values_[name] = args[i].substr(equals + 1);
        continue;
      }
      if (i + 1 >= args.size()) {
        return InvalidArgumentError("flag " + args[i] + " is missing a value");
      }
      std::string name = args[i].substr(2);
      if (flags.values_.count(name) != 0) {
        return InvalidArgumentError("duplicate flag --" + name);
      }
      flags.values_[name] = args[i + 1];
      ++i;
    }
    auto accepted = CommandFlags(args[0], flags.values_);
    if (!accepted.has_value()) {
      return InvalidArgumentError("unknown command '" + args[0] + "'");
    }
    for (const auto& [name, value] : flags.values_) {
      if (accepted->count(name) == 0) {
        return InvalidArgumentError("unknown flag --" + name + " for `" +
                                    args[0] + "`");
      }
    }
    return flags;
  }

  std::optional<std::string> Get(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  Result<int> GetInt(const std::string& name, int default_value) const {
    auto value = Get(name);
    if (!value.has_value()) return default_value;
    char* end = nullptr;
    long parsed = std::strtol(value->c_str(), &end, 10);
    if (end == value->c_str() || *end != '\0' || parsed < INT_MIN ||
        parsed > INT_MAX) {
      return InvalidArgumentError("--" + name + " expects an integer, got '" +
                                  *value + "'");
    }
    return static_cast<int>(parsed);
  }

  Result<double> GetDouble(const std::string& name, double default_value) const {
    auto value = Get(name);
    if (!value.has_value()) return default_value;
    char* end = nullptr;
    double parsed = std::strtod(value->c_str(), &end);
    if (end == value->c_str() || *end != '\0') {
      return InvalidArgumentError("--" + name + " expects a number, got '" +
                                  *value + "'");
    }
    return parsed;
  }

 private:
  std::map<std::string, std::string> values_;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Result<IndexTree> LoadTree(const FlagMap& flags) {
  auto inline_tree = flags.Get("tree");
  auto tree_file = flags.Get("tree-file");
  if (inline_tree.has_value() == tree_file.has_value()) {
    return InvalidArgumentError("provide exactly one of --tree / --tree-file");
  }
  std::string text;
  if (inline_tree.has_value()) {
    text = *inline_tree;
  } else {
    auto contents = ReadFile(*tree_file);
    if (!contents.ok()) return contents.status();
    text = *contents;
  }
  return ParseTree(text);
}

// --bound / --seed-incumbent: tuning knobs for the exact topological-tree
// search. Both leave the planned allocation byte-identical (the bound kinds
// are both admissible; seeding is a strict upper bound) — they only change
// how much of the tree the search explores.
Status LoadSearchTuning(const FlagMap& flags, OptimalOptions* optimal) {
  if (auto bound = flags.Get("bound"); bound.has_value()) {
    if (*bound == "paper-next-slot") {
      optimal->bound = TopoTreeSearch::BoundKind::kPaperNextSlot;
    } else if (*bound == "packed") {
      optimal->bound = TopoTreeSearch::BoundKind::kPacked;
    } else {
      return InvalidArgumentError("unknown bound '" + *bound +
                                  "' (expected paper-next-slot or packed)");
    }
  }
  if (auto seed = flags.Get("seed-incumbent"); seed.has_value()) {
    if (*seed == "none") {
      optimal->seed_incumbent = OptimalOptions::SeedIncumbent::kNone;
    } else if (*seed == "heuristic") {
      optimal->seed_incumbent = OptimalOptions::SeedIncumbent::kHeuristic;
    } else if (*seed == "previous") {
      optimal->seed_incumbent = OptimalOptions::SeedIncumbent::kPrevious;
    } else {
      return InvalidArgumentError("unknown seed-incumbent '" + *seed +
                                  "' (expected none, heuristic or previous)");
    }
  }
  return Status::Ok();
}

// --plan-budget-expansions / --plan-deadline-ms / --degrade: deadline-aware
// anytime planning (see DESIGN.md section 14). The expansion budget is
// deterministic across thread counts; the wall-clock deadline is not — the
// two are mutually exclusive so a script cannot silently mix a reproducible
// knob with an irreproducible one.
Status LoadPlanBudget(const FlagMap& flags, PlannerOptions* options) {
  auto budget = flags.GetInt("plan-budget-expansions", 0);
  if (!budget.ok()) return budget.status();
  auto deadline_ms = flags.GetInt("plan-deadline-ms", 0);
  if (!deadline_ms.ok()) return deadline_ms.status();
  const bool has_budget = flags.Get("plan-budget-expansions").has_value();
  const bool has_deadline = flags.Get("plan-deadline-ms").has_value();
  if (has_budget && *budget < 1) {
    return InvalidArgumentError("--plan-budget-expansions must be >= 1, got " +
                                std::to_string(*budget));
  }
  if (has_deadline && *deadline_ms < 1) {
    return InvalidArgumentError("--plan-deadline-ms must be >= 1, got " +
                                std::to_string(*deadline_ms));
  }
  if (has_budget && has_deadline) {
    return InvalidArgumentError(
        "--plan-budget-expansions and --plan-deadline-ms are mutually "
        "exclusive (deterministic budget vs wall-clock deadline)");
  }
  options->optimal.budget.max_expansions = static_cast<uint64_t>(*budget);
  options->optimal.budget.deadline_ns =
      static_cast<uint64_t>(*deadline_ms) * 1'000'000ull;
  if (auto degrade = flags.Get("degrade"); degrade.has_value()) {
    if (*degrade == "off") {
      options->degrade = DegradePolicy::kNever;
    } else if (*degrade == "anytime") {
      options->degrade = DegradePolicy::kAnytime;
    } else if (*degrade == "heuristic") {
      options->degrade = DegradePolicy::kHeuristic;
    } else {
      return InvalidArgumentError("unknown degrade policy '" + *degrade +
                                  "' (expected off, anytime or heuristic)");
    }
  }
  return Status::Ok();
}

// Prints the provenance line for a plan that is not the exact optimum and
// folds its degraded bit into the CLI's exit-code decision.
void ReportProvenance(const BroadcastPlan& plan, std::ostringstream* os,
                      bool* degraded) {
  if (plan.degraded) *degraded = true;
  if (plan.provenance == PlanProvenance::kExact) return;
  *os << "provenance        : " << PlanProvenanceName(plan.provenance);
  if (plan.degraded) *os << " (degraded)";
  *os << ", optimum in [" << plan.allocation.cost_lower_bound << ", "
      << plan.allocation.cost_upper_bound << "] buckets\n";
}

Result<PlanStrategy> ParseStrategy(const std::string& name) {
  static constexpr std::pair<const char*, PlanStrategy> kStrategies[] = {
      {"auto", PlanStrategy::kAuto},
      {"optimal", PlanStrategy::kOptimal},
      {"sorting", PlanStrategy::kSorting},
      {"shrinking", PlanStrategy::kShrinking},
      {"level", PlanStrategy::kLevelAllocation},
      {"preorder", PlanStrategy::kPreorder},
      {"greedy-weight", PlanStrategy::kGreedyWeight},
  };
  for (const auto& [key, strategy] : kStrategies) {
    if (name == key) return strategy;
  }
  return InvalidArgumentError("unknown strategy '" + name + "'");
}

void PrintCosts(const IndexTree& tree, const BroadcastSchedule& schedule,
                std::ostringstream* os) {
  AccessCosts costs = ComputeAccessCosts(tree, schedule);
  *os << "average data wait : " << costs.average_data_wait << " buckets\n";
  *os << "average tuning    : " << costs.average_tuning_time << " buckets\n";
  *os << "channel switches  : " << costs.average_switches << "\n";
  *os << "cycle length      : " << costs.cycle_length << " slots ("
      << costs.empty_buckets << " empty buckets)\n";
}

// `plan --simulate N` / `eval --simulate N`: N clients of the default
// population (seed 0xC11) against the planned or loaded schedule.
Status Simulate(const IndexTree& tree, const BroadcastSchedule& schedule,
                int queries, std::ostringstream* os) {
  auto sim = PopulationSimulator::Create(tree, schedule);
  if (!sim.ok()) return sim.status();
  PopSimOptions options;
  options.population.num_clients = static_cast<uint64_t>(queries);
  auto report = sim->Run(options);
  if (!report.ok()) return report.status();
  *os << "simulated " << queries << " accesses: access "
      << report->mean_access_time << ", data wait " << report->mean_data_wait
      << ", tuning " << report->mean_tuning_time << " buckets, dozing "
      << 100.0 * (1.0 - report->listen_fraction) << "% of the time\n";
  return Status::Ok();
}

Status CmdPlan(const FlagMap& flags, std::ostringstream* os, bool* degraded) {
  auto tree = LoadTree(flags);
  if (!tree.ok()) return tree.status();

  PlannerOptions options;
  auto channels = flags.GetInt("channels", 1);
  if (!channels.ok()) return channels.status();
  options.num_channels = *channels;
  auto strategy = ParseStrategy(flags.Get("strategy").value_or("auto"));
  if (!strategy.ok()) return strategy.status();
  options.strategy = *strategy;
  BCAST_RETURN_IF_ERROR(LoadSearchTuning(flags, &options.optimal));
  BCAST_RETURN_IF_ERROR(LoadPlanBudget(flags, &options));

  auto plan = PlanBroadcast(*tree, options);
  if (!plan.ok()) return plan.status();

  *os << "strategy          : " << PlanStrategyName(plan->strategy_used) << "\n";
  ReportProvenance(*plan, os, degraded);
  *os << plan->schedule.ToString(*tree);
  PrintCosts(*tree, plan->schedule, os);

  auto simulate = flags.GetInt("simulate", 0);
  if (!simulate.ok()) return simulate.status();
  if (*simulate > 0) {
    BCAST_RETURN_IF_ERROR(Simulate(*tree, plan->schedule, *simulate, os));
  }

  if (auto save = flags.Get("save"); save.has_value()) {
    auto program = FormatProgram(*tree, plan->schedule);
    if (!program.ok()) return program.status();
    std::ofstream file(*save);
    if (!file) return InternalError("cannot write '" + *save + "'");
    file << *program;
    *os << "saved program to " << *save << "\n";
  }
  return Status::Ok();
}

// `stats` is `plan` plus the paper's census of the reduced topological tree
// (PruningCensus), published as pruning.* beside the plan's live search.*
// counters. A census past its node limit sets pruning.breakdown_truncated; a
// tree the topological search cannot hold (over 64 nodes) gets no census.
Status CmdStats(const FlagMap& flags, std::ostringstream* os, bool* degraded) {
  BCAST_RETURN_IF_ERROR(CmdPlan(flags, os, degraded));
  auto tree = LoadTree(flags);
  if (!tree.ok()) return tree.status();
  auto channels = flags.GetInt("channels", 1);
  if (!channels.ok()) return channels.status();
  auto census = PruningCensus(*tree, *channels);
  if (census.ok()) {
    EmitPruningBreakdown(*census);
  } else if (census.status().code() == StatusCode::kResourceExhausted) {
    obs::GetCounter("pruning.breakdown_truncated").Increment();
  } else {
    *os << "pruning census    : none (" << census.status().message() << ")\n";
  }
  return Status::Ok();
}

Result<LossModelKind> ParseLossModel(const std::string& name) {
  if (name == "none") return LossModelKind::kNone;
  if (name == "bernoulli") return LossModelKind::kBernoulli;
  if (name == "gilbert-elliott") return LossModelKind::kGilbertElliott;
  return InvalidArgumentError("unknown loss model '" + name + "'");
}

// Builds the (uniform) per-channel fault model from --loss-* flags. `prefix`
// selects a second, independently-flagged model (popsim's --degraded-* set).
Result<FaultModel> LoadFaultModel(const FlagMap& flags, int num_channels,
                                  const std::string& prefix = "") {
  auto kind = ParseLossModel(flags.Get(prefix + "loss-model").value_or("none"));
  if (!kind.ok()) return kind.status();
  ChannelLossSpec spec;
  spec.kind = *kind;
  auto loss_rate = flags.GetDouble(prefix + "loss-rate", 0.1);
  auto corrupt = flags.GetDouble(prefix + "corrupt-fraction", 0.0);
  auto good_to_bad = flags.GetDouble(prefix + "ge-good-to-bad", 0.05);
  auto bad_to_good = flags.GetDouble(prefix + "ge-bad-to-good", 0.5);
  auto loss_good = flags.GetDouble(prefix + "ge-loss-good", 0.0);
  auto loss_bad = flags.GetDouble(prefix + "ge-loss-bad", 1.0);
  if (!loss_rate.ok()) return loss_rate.status();
  if (!corrupt.ok()) return corrupt.status();
  if (!good_to_bad.ok()) return good_to_bad.status();
  if (!bad_to_good.ok()) return bad_to_good.status();
  if (!loss_good.ok()) return loss_good.status();
  if (!loss_bad.ok()) return loss_bad.status();
  spec.loss_prob = *loss_rate;
  spec.corrupt_fraction = *corrupt;
  spec.p_good_to_bad = *good_to_bad;
  spec.p_bad_to_good = *bad_to_good;
  spec.loss_good = *loss_good;
  spec.loss_bad = *loss_bad;
  return FaultModel::CreateUniform(num_channels, spec);
}

// Fail-fast probe for report paths (--metrics-out / --trace-out): an
// unwritable destination must die before the run, not after the work is
// done and the snapshot write finally fails.
Status ProbeWritable(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return InvalidArgumentError("cannot open for writing: " + path + " (" +
                                std::strerror(errno) + ")");
  }
  std::fclose(file);
  return Status::Ok();
}

// --telemetry-out / --slo, resolved once in RunCli and handed to the
// commands that can stream (simulate --cycles and popsim). The sink is
// opened before dispatch, so an unwritable path fails the whole command at
// startup — never after a million-client run.
struct TelemetryParams {
  obs::TelemetrySink* sink = nullptr;  // non-null iff --telemetry-out given
  obs::Registry* registry = nullptr;
  std::vector<obs::SloSpec> slos;
  std::string path;
};

// Closes the stream, reports totals, and propagates the first sink error: a
// telemetry file that went bad mid-run (disk full, path yanked) must fail
// the command, not vanish silently. The engine's own finish guard has
// usually already written the fin record with the run's real outcome;
// Finish() here is the idempotent status collection.
Status FinishTelemetry(obs::TelemetryPipeline* pipeline,
                       const TelemetryParams& telemetry,
                       std::ostringstream* os) {
  Status status = pipeline->Finish("ok");
  BCAST_RETURN_IF_ERROR(status);
  *os << "wrote telemetry to " << telemetry.path << " (" << pipeline->ticks()
      << " ticks, " << pipeline->alerts_emitted() << " alerts, "
      << pipeline->dropped() << " dropped)\n";
  return Status::Ok();
}

// `bcastctl simulate --cycles N`: the adaptive-server loop of
// sim/server_sim.h — a drifting true distribution, per-cycle replanning from
// estimated frequencies, the full degradation ladder, and (with
// --telemetry-out) one telemetry tick per cycle.
Status CmdSimulateAdaptive(const FlagMap& flags, std::ostringstream* os,
                           bool* degraded, const TelemetryParams& telemetry) {
  AdaptiveServerOptions options;
  auto cycles = flags.GetInt("cycles", 20);
  auto items = flags.GetInt("items", 64);
  auto queries = flags.GetInt("queries-per-cycle", 2000);
  auto replan_every = flags.GetInt("replan-every", 1);
  auto decay = flags.GetDouble("estimator-decay", options.estimator_decay);
  auto drift_every = flags.GetInt("drift-every", 0);
  auto seed = flags.GetInt("seed", 0xC11);
  auto channels = flags.GetInt("channels", 2);
  if (!cycles.ok()) return cycles.status();
  if (!items.ok()) return items.status();
  if (!queries.ok()) return queries.status();
  if (!replan_every.ok()) return replan_every.status();
  if (!decay.ok()) return decay.status();
  if (!drift_every.ok()) return drift_every.status();
  if (!seed.ok()) return seed.status();
  if (!channels.ok()) return channels.status();
  if (*cycles < 1) return InvalidArgumentError("--cycles must be >= 1");
  if (*items < 2) return InvalidArgumentError("--items must be >= 2");
  if (*queries < 1) {
    return InvalidArgumentError("--queries-per-cycle must be >= 1");
  }
  if (*replan_every < 0) {
    return InvalidArgumentError("--replan-every must be >= 0");
  }
  if (*drift_every < 0) {
    return InvalidArgumentError("--drift-every must be >= 0");
  }
  options.num_cycles = *cycles;
  options.queries_per_cycle = *queries;
  options.replan_every = *replan_every;
  options.estimator_decay = *decay;
  options.num_channels = *channels;
  auto strategy = ParseStrategy(flags.Get("strategy").value_or("sorting"));
  if (!strategy.ok()) return strategy.status();
  options.strategy = *strategy;
  // --threads: the planner's threads. The CLI requires an explicit positive
  // count (no 0-means-hardware shorthand: a script that says 0 almost
  // certainly meant to disable parallelism, not max it out).
  auto threads = flags.GetInt("threads", 1);
  if (!threads.ok()) return threads.status();
  if (*threads < 1) {
    return InvalidArgumentError("--threads must be >= 1, got " +
                                std::to_string(*threads));
  }
  options.planner_threads = *threads;
  PlannerOptions budget;  // LoadPlanBudget's flag surface, reused verbatim
  BCAST_RETURN_IF_ERROR(LoadPlanBudget(flags, &budget));
  options.plan_budget_expansions = budget.optimal.budget.max_expansions;
  options.plan_deadline_ns = budget.optimal.budget.deadline_ns;
  options.degrade = budget.degrade;
  auto faults = LoadFaultModel(flags, *channels);
  if (!faults.ok()) return faults.status();
  options.faults = *faults;

  // Zipf(1) catalog: item i's true rate is 1/(i+1). Drift, when enabled,
  // rotates the weights one item every --drift-every cycles — fully
  // deterministic, so two runs with the same flags serve identical queries.
  std::vector<double> weights(static_cast<size_t>(*items));
  for (int i = 0; i < *items; ++i) {
    weights[static_cast<size_t>(i)] = 1.0 / (i + 1.0);
  }
  DriftFn drift;
  if (*drift_every > 0) {
    const int every = *drift_every;
    drift = [every](int cycle, std::vector<double>* w) {
      if ((cycle + 1) % every == 0) {
        std::rotate(w->begin(), w->begin() + 1, w->end());
      }
    };
  }

  std::optional<obs::TelemetryPipeline> pipeline;
  if (telemetry.sink != nullptr) {
    obs::TelemetryOptions stream_options;
    stream_options.registry = telemetry.registry;
    stream_options.counters = {
        "planner.deadline_missed",      "planner.degraded.anytime",
        "planner.degraded.heuristic",   "planner.degraded.stale",
        "planner.backoff_skips",        "sim.oracle_plan_retries",
        "fault.task.injected_failures", "fault.task.injected_stalls"};
    stream_options.slos = telemetry.slos;
    stream_options.source = "adaptive_server";
    stream_options.meta["seed"] = std::to_string(*seed);
    stream_options.meta["cycles"] = std::to_string(*cycles);
    pipeline.emplace(telemetry.sink, std::move(stream_options));
    options.telemetry = &*pipeline;
  }

  if (obs::MetricsEnabled()) {
    obs::SetMeta("seed", std::to_string(*seed));
  }
  Rng rng(static_cast<uint64_t>(*seed));
  auto report = RunAdaptiveServer(std::move(weights), drift, &rng, options);
  if (!report.ok()) return report.status();

  int rungs[4] = {0, 0, 0, 0};
  for (const CycleStats& stats : report->cycles) {
    const int rung = static_cast<int>(stats.served_provenance);
    ++rungs[std::clamp(rung, 0, 3)];
  }
  *os << "adaptive server   : " << *cycles << " cycle(s), " << *items
      << " item(s), " << *queries << " queries/cycle, replan every "
      << *replan_every << " (seed " << *seed << ")\n";
  *os << "mean data wait    : realized " << report->mean_realized
      << ", oracle " << report->mean_oracle << " buckets\n";
  *os << "delivery          : " << 100.0 * report->mean_delivery_success
      << "% mean per-cycle success\n";
  *os << "served provenance : exact " << rungs[0] << ", anytime " << rungs[1]
      << ", heuristic " << rungs[2] << ", stale " << rungs[3] << "\n";
  if (report->stale_serves > 0 || report->backoff_skips > 0) {
    *os << "ladder stage 4    : " << report->stale_serves
        << " stale serve(s), " << report->backoff_skips
        << " backoff skip(s)\n";
    *degraded = true;
  }
  if (pipeline.has_value()) {
    BCAST_RETURN_IF_ERROR(FinishTelemetry(&*pipeline, telemetry, os));
  }
  return Status::Ok();
}

// What `simulate` and `popsim` share: --seed, the recovery ladder
// (--retries, --restarts, --scan-passes), the program under test — a saved
// --program file, or a plan of --tree/--tree-file replicated per
// --replicate-copies/--replicate-levels — and its --loss-* medium, all set
// in `options`. Prints the program, strategy, replication and loss-model
// lines. `tree` receives the index tree the simulator refers to, so it must
// outlive the simulator.
Result<PopulationSimulator> LoadClientRun(const FlagMap& flags,
                                          IndexTree* tree,
                                          PopSimOptions* options,
                                          std::ostringstream* os,
                                          bool* degraded) {
  auto seed = flags.GetInt("seed", 0xC11);
  if (!seed.ok()) return seed.status();
  options->seed = static_cast<uint64_t>(*seed);
  RecoveryOptions& recovery = options->recovery;
  auto retries = flags.GetInt("retries", recovery.max_retries_per_hop);
  auto restarts = flags.GetInt("restarts", recovery.max_cycle_restarts);
  auto scans = flags.GetInt("scan-passes", recovery.max_scan_passes);
  if (!retries.ok()) return retries.status();
  if (!restarts.ok()) return restarts.status();
  if (!scans.ok()) return scans.status();
  if (*retries < 0) return InvalidArgumentError("--retries must be >= 0");
  if (*restarts < 0) return InvalidArgumentError("--restarts must be >= 0");
  if (*scans < 0) return InvalidArgumentError("--scan-passes must be >= 0");
  recovery.max_retries_per_hop = *retries;
  recovery.max_cycle_restarts = *restarts;
  recovery.max_scan_passes = *scans;

  auto copies = flags.GetInt("replicate-copies", 1);
  auto levels = flags.GetInt("replicate-levels", 1);
  if (!copies.ok()) return copies.status();
  if (!levels.ok()) return levels.status();

  std::optional<Result<PopulationSimulator>> sim;
  int num_channels = 0;
  if (auto path = flags.Get("program"); path.has_value()) {
    if (*copies > 1) {
      return InvalidArgumentError(
          "--replicate-copies needs a --tree plan (program files carry a "
          "fixed grid)");
    }
    auto text = ReadFile(*path);
    if (!text.ok()) return text.status();
    auto program = ParseProgram(*text);
    if (!program.ok()) return program.status();
    *tree = std::move(program->tree);
    num_channels = program->schedule.num_channels();
    *os << "program           : " << *path << "\n";
    sim.emplace(PopulationSimulator::Create(*tree, program->schedule));
  } else {
    auto loaded = LoadTree(flags);
    if (!loaded.ok()) return loaded.status();
    *tree = std::move(loaded).value();
    PlannerOptions plan_options;
    auto channels = flags.GetInt("channels", 1);
    if (!channels.ok()) return channels.status();
    plan_options.num_channels = num_channels = *channels;
    auto strategy = ParseStrategy(flags.Get("strategy").value_or("auto"));
    if (!strategy.ok()) return strategy.status();
    plan_options.strategy = *strategy;
    BCAST_RETURN_IF_ERROR(LoadSearchTuning(flags, &plan_options.optimal));
    BCAST_RETURN_IF_ERROR(LoadPlanBudget(flags, &plan_options));
    plan_options.replication.root_copies = *copies;
    plan_options.replication.replicate_levels = *levels;
    auto plan = PlanBroadcast(*tree, plan_options);
    if (!plan.ok()) return plan.status();
    *os << "strategy          : " << PlanStrategyName(plan->strategy_used)
        << "\n";
    ReportProvenance(*plan, os, degraded);
    if (plan->replicated.has_value()) {
      *os << "replication       : " << *copies << " copies of the top "
          << *levels << " index level(s), cycle "
          << plan->replicated->cycle_length << " slots\n";
      sim.emplace(PopulationSimulator::Create(*tree, *plan->replicated));
    } else {
      sim.emplace(PopulationSimulator::Create(*tree, plan->schedule));
    }
  }
  if (!sim->ok()) return sim->status();

  auto faults = LoadFaultModel(flags, num_channels);
  if (!faults.ok()) return faults.status();
  options->faults = *faults;
  const ChannelLossSpec& spec = faults->channel(0);
  *os << "loss model        : " << LossModelKindName(spec.kind);
  if (spec.kind != LossModelKind::kNone) {
    *os << " (stationary loss rate " << 100.0 * spec.StationaryLossRate()
        << "%, corrupt fraction " << 100.0 * spec.corrupt_fraction << "%)";
  }
  *os << "\n";

  if (obs::MetricsEnabled()) {
    // Seed + per-substream draw counts (rng.draws.*) make a snapshot enough
    // to replay the run: they pin exactly which random prefix was consumed.
    // The run emits the query and fault streams; the tree stream is
    // registered here so the snapshot always carries all three.
    obs::SetMeta("seed", std::to_string(*seed));
    obs::GetCounter("rng.draws.tree").Add(0);
  }
  return std::move(*sim);
}

// The outcome lines `simulate` and `popsim` share, in two groups: delivery
// (success, mean access, access tail) and recovery (faults, ladder rungs,
// rng draws).
void PrintDelivery(const PopReport& report, std::ostringstream* os) {
  *os << "success rate      : " << 100.0 * report.success_rate << "% ("
      << report.num_succeeded << " delivered)\n";
  *os << "mean access time  : " << report.mean_access_time
      << " buckets (probe " << report.mean_probe_wait << ", data wait "
      << report.mean_data_wait << ")\n";
  *os << "access time tail  : p50 " << report.p50_access_time << ", p95 "
      << report.p95_access_time << ", p99 " << report.p99_access_time
      << " buckets\n";
}

void PrintRecovery(const PopReport& report, std::ostringstream* os) {
  *os << "faults observed   : " << report.buckets_lost << " lost, "
      << report.buckets_corrupted << " corrupted\n";
  *os << "recovery          : " << report.retries << " retries, "
      << report.cycle_restarts << " cycle restarts, "
      << report.sequential_scans << " sequential scans\n";
  *os << "rng draws         : " << report.rng_query_draws << " query, "
      << report.rng_fault_draws << " fault\n";
}

// `bcastctl simulate` without --cycles: --queries clients of the default
// population (tree-weight targets, arrivals over one cycle), on one thread.
Status CmdSimulate(const FlagMap& flags, std::ostringstream* os,
                   bool* degraded, const TelemetryParams& telemetry) {
  if (flags.Get("cycles").has_value()) {
    return CmdSimulateAdaptive(flags, os, degraded, telemetry);
  }
  if (telemetry.sink != nullptr) {
    return InvalidArgumentError(
        "--telemetry-out on simulate requires --cycles (only the "
        "adaptive-server mode has a per-cycle stream)");
  }
  PopSimOptions options;
  auto queries = flags.GetInt("queries", 100'000);
  if (!queries.ok()) return queries.status();
  if (*queries < 1) return InvalidArgumentError("--queries must be >= 1");
  options.population.num_clients = static_cast<uint64_t>(*queries);
  IndexTree tree;
  auto sim = LoadClientRun(flags, &tree, &options, os, degraded);
  if (!sim.ok()) return sim.status();

  auto report = sim->Run(options);
  if (!report.ok()) return report.status();
  *os << "queries           : " << report->num_clients << " (seed "
      << static_cast<int>(options.seed) << ")\n";
  PrintDelivery(*report, os);
  *os << "mean tuning       : " << report->mean_tuning_time
      << " buckets, dozing " << 100.0 * (1.0 - report->listen_fraction)
      << "% of the time\n";
  PrintRecovery(*report, os);
  return Status::Ok();
}

// `bcastctl popsim`: run a whole client population (src/popsim/) against a
// planned or saved program. Shares the program loading, loss-model and
// recovery flags with `simulate`; adds the population shape knobs, the
// engine shape and a second --degraded-* loss-flag set for the degraded
// client fraction.
Status CmdPopSim(const FlagMap& flags, std::ostringstream* os, bool* degraded,
                 const TelemetryParams& telemetry) {
  PopSimOptions options;
  auto clients = flags.GetInt("clients", 100'000);
  if (!clients.ok()) return clients.status();
  if (*clients < 1) return InvalidArgumentError("--clients must be >= 1");
  options.population.num_clients = static_cast<uint64_t>(*clients);

  const std::string interest = flags.Get("interest").value_or("tree");
  if (interest == "tree") {
    options.population.interest = PopulationSpec::Interest::kTreeWeights;
  } else if (interest == "zipf") {
    options.population.interest = PopulationSpec::Interest::kZipf;
  } else if (interest == "uniform") {
    options.population.interest = PopulationSpec::Interest::kUniform;
  } else {
    return InvalidArgumentError("unknown --interest '" + interest +
                                "' (want tree, zipf or uniform)");
  }
  auto zipf_theta =
      flags.GetDouble("zipf-theta", options.population.zipf_theta);
  auto horizon = flags.GetInt("horizon-cycles", 1);
  auto doze = flags.GetDouble("doze-fraction", 0.0);
  auto doze_max = flags.GetInt("doze-max-cycles", 0);
  auto degraded_fraction = flags.GetDouble("degraded-fraction", 0.0);
  if (!zipf_theta.ok()) return zipf_theta.status();
  if (!horizon.ok()) return horizon.status();
  if (!doze.ok()) return doze.status();
  if (!doze_max.ok()) return doze_max.status();
  if (!degraded_fraction.ok()) return degraded_fraction.status();
  options.population.zipf_theta = *zipf_theta;
  options.population.arrival_horizon_cycles = *horizon;
  options.population.doze_fraction = *doze;
  options.population.max_doze_cycles = *doze_max;
  options.population.degraded_fraction = *degraded_fraction;

  // Engine shape. --threads 0 = one per hardware thread; results never
  // depend on either knob (the invariance the popsim tests pin).
  auto threads = flags.GetInt("threads", 0);
  auto shards = flags.GetInt("shards", 0);
  if (!threads.ok()) return threads.status();
  if (!shards.ok()) return shards.status();
  if (*threads < 0) return InvalidArgumentError("--threads must be >= 0");
  if (*threads > PopulationSimulator::kMaxAutoShards) {
    return InvalidArgumentError(
        "--threads must be <= " +
        std::to_string(PopulationSimulator::kMaxAutoShards));
  }
  if (*shards < 0) return InvalidArgumentError("--shards must be >= 0");
  options.num_threads = *threads;
  options.num_shards = *shards;

  IndexTree tree;
  auto sim = LoadClientRun(flags, &tree, &options, os, degraded);
  if (!sim.ok()) return sim.status();
  auto degraded_faults =
      LoadFaultModel(flags, sim->num_channels(), "degraded-");
  if (!degraded_faults.ok()) return degraded_faults.status();
  options.degraded_faults = *degraded_faults;
  if (options.population.degraded_fraction > 0.0) {
    const ChannelLossSpec& dspec = degraded_faults->channel(0);
    *os << "degraded clients  : "
        << 100.0 * options.population.degraded_fraction << "% on "
        << LossModelKindName(dspec.kind) << " (stationary loss rate "
        << 100.0 * dspec.StationaryLossRate() << "%)\n";
  }

  const std::string seed = std::to_string(static_cast<int>(options.seed));
  std::optional<obs::TelemetryPipeline> pipeline;
  if (telemetry.sink != nullptr) {
    obs::TelemetryOptions stream_options;
    stream_options.registry = telemetry.registry;
    // Each shard tick carries the windowed quantiles of exactly that shard's
    // clients (the engine interleaves histogram recording with the ticks).
    stream_options.histograms = {"popsim.data_wait_slots",
                                 "popsim.tuning_slots"};
    stream_options.slos = telemetry.slos;
    stream_options.source = "popsim";
    stream_options.meta["seed"] = seed;
    stream_options.meta["clients"] = std::to_string(*clients);
    pipeline.emplace(telemetry.sink, std::move(stream_options));
    options.telemetry = &*pipeline;
  }
  const auto start = std::chrono::steady_clock::now();
  auto report = sim->Run(options);
  if (!report.ok()) return report.status();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  *os << "clients           : " << report->num_clients << " (seed " << seed
      << ", interest " << interest << ", horizon " << *horizon
      << " cycle(s))\n";
  *os << "engine            : " << report->threads_used << " thread(s), "
      << report->shards_used << " shard(s), " << report->slots_processed
      << " slots";
  if (seconds > 0.0) {
    *os << ", " << static_cast<uint64_t>(
                       static_cast<double>(report->num_clients) / seconds)
        << " clients/s";
  }
  *os << "\n";
  PrintDelivery(*report, os);
  *os << "data wait tail    : p50 " << report->p50_data_wait << ", p95 "
      << report->p95_data_wait << ", p99 " << report->p99_data_wait
      << " buckets\n";
  *os << "tuning time tail  : p50 " << report->p50_tuning_time << ", p95 "
      << report->p95_tuning_time << ", p99 " << report->p99_tuning_time
      << " buckets (mean " << report->mean_tuning_time << ")\n";
  PrintRecovery(*report, os);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(report->digest));
  *os << "outcome digest    : " << digest_hex
      << " (thread- and shard-invariant)\n";
  if (pipeline.has_value()) {
    BCAST_RETURN_IF_ERROR(FinishTelemetry(&*pipeline, telemetry, os));
  }
  return Status::Ok();
}

// Unicode block-element sparkline over the last `width` points of a series.
// NaN points (no observation that tick) render as '.'.
std::string Sparkline(const obs::Series& series, size_t width) {
  static constexpr const char* kGlyphs[] = {"▁", "▂", "▃",
                                            "▄", "▅", "▆",
                                            "▇", "█"};
  const size_t count = std::min(width, series.size());
  const size_t first = series.size() - count;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (size_t i = first; i < series.size(); ++i) {
    const double v = series.At(i).value;
    if (std::isnan(v)) continue;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  std::string out;
  for (size_t i = first; i < series.size(); ++i) {
    const double v = series.At(i).value;
    if (std::isnan(v)) {
      out += '.';
      continue;
    }
    const double unit = hi > lo ? (v - lo) / (hi - lo) : 0.5;
    const int glyph = std::clamp(static_cast<int>(unit * 7.0 + 0.5), 0, 7);
    out += kGlyphs[glyph];
  }
  return out;
}

// Ten-cell budget bar: '#' for consumed budget, '-' for remaining; caps at
// full so a blown budget still renders.
std::string BudgetBar(double consumed) {
  const int filled =
      std::clamp(static_cast<int>(consumed * 10.0 + 0.5), 0, 10);
  return "[" + std::string(static_cast<size_t>(filled), '#') +
         std::string(static_cast<size_t>(10 - filled), '-') + "]";
}

// `bcastctl top`: renders a telemetry stream — live (point --replay at the
// file a running --telemetry-out command is appending to) or post-mortem —
// as a dashboard: one sparkline row per series, SLO burn/budget bars, the
// degradation-rung tally, and the stream's fin totals.
Status CmdTop(const FlagMap& flags, std::ostringstream* os) {
  auto replay = flags.Get("replay");
  if (!replay.has_value()) {
    return InvalidArgumentError(
        "--replay <file.jsonl> is required (start a run with "
        "--telemetry-out and point --replay at that file, even mid-run)");
  }
  auto window = flags.GetInt("window", 32);
  if (!window.ok()) return window.status();
  if (*window < 2) return InvalidArgumentError("--window must be >= 2");
  const size_t win = static_cast<size_t>(*window);
  auto records = obs::ReadTelemetryFile(*replay);
  if (!records.ok()) return records.status();

  const obs::TelemetryRecord* meta = nullptr;
  const obs::TelemetryRecord* fin = nullptr;
  for (const obs::TelemetryRecord& record : *records) {
    if (record.type == obs::TelemetryRecord::Type::kMeta && meta == nullptr) {
      meta = &record;
    } else if (record.type == obs::TelemetryRecord::Type::kFin) {
      fin = &record;
    }
  }

  // Replay the stream through the same engine the writer ran: rebuild the
  // ring-buffer series tick by tick and re-evaluate the meta record's SLO
  // specs, so burn/budget here match the alert records exactly.
  std::vector<obs::SloSpec> specs;
  if (meta != nullptr) {
    for (const std::string& text : meta->slos) {
      auto spec = obs::ParseSloSpec(text);
      if (!spec.ok()) return spec.status();
      specs.push_back(std::move(spec).value());
    }
  }
  obs::SloEngine engine(std::move(specs));
  obs::SeriesSet series;
  uint64_t ticks = 0;
  for (const obs::TelemetryRecord& record : *records) {
    if (record.type != obs::TelemetryRecord::Type::kTick) continue;
    for (const auto& [name, value] : record.values) {
      series.GetOrCreate(name)->Append(record.index, value);
    }
    engine.Tick(record.index, series, nullptr);
    ++ticks;
  }

  *os << "telemetry         : " << *replay;
  if (meta != nullptr) {
    if (auto it = meta->meta.find("source"); it != meta->meta.end()) {
      *os << " (source " << it->second << ")";
    }
  }
  *os << "\n";
  *os << "ticks             : " << ticks << ", window " << win << "\n";

  size_t name_width = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    name_width = std::max(name_width, series.at(i).name().size());
  }
  for (size_t i = 0; i < series.size(); ++i) {
    const obs::Series& s = series.at(i);
    char row[128];
    std::snprintf(row, sizeof(row), "  %-*s last %11.5g mean %11.5g max %11.5g  ",
                  static_cast<int>(name_width), s.name().c_str(), s.Last(),
                  s.WindowMean(win), s.WindowMax(win));
    *os << row << Sparkline(s, win) << "\n";
  }

  if (!engine.specs().empty()) {
    *os << "slos:\n";
    for (size_t i = 0; i < engine.specs().size(); ++i) {
      const obs::SloSpec& spec = engine.specs()[i];
      const obs::SloState& state = engine.states()[i];
      char row[160];
      std::snprintf(row, sizeof(row),
                    "  %s %s burn %.3g budget %s %.1f%% (%llu/%llu bad)",
                    spec.name.c_str(), state.firing ? "FIRING " : "ok     ",
                    state.burn_rate, BudgetBar(state.budget_consumed).c_str(),
                    100.0 * state.budget_consumed,
                    static_cast<unsigned long long>(state.bad_ticks),
                    static_cast<unsigned long long>(state.ticks));
      *os << row << "\n";
    }
  }

  // Degradation rungs, when the stream carries the adaptive server's
  // sim.served_rung series (0 exact, 1 anytime, 2 heuristic, 3 stale).
  if (const obs::Series* rung = series.Find("sim.served_rung");
      rung != nullptr) {
    uint64_t counts[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < rung->size(); ++i) {
      const double v = rung->At(i).value;
      if (std::isnan(v)) continue;
      counts[std::clamp(static_cast<int>(v), 0, 3)] += 1;
    }
    *os << "rungs             : exact " << counts[0] << ", anytime "
        << counts[1] << ", heuristic " << counts[2] << ", stale " << counts[3]
        << " (retained ticks)\n";
  }

  if (fin != nullptr) {
    *os << "stream            : finished, " << fin->ticks << " tick(s), "
        << fin->alerts << " alert(s), " << fin->dropped << " dropped";
    if (auto it = fin->meta.find("outcome"); it != fin->meta.end()) {
      *os << ", outcome " << it->second;
    }
    *os << "\n";
  } else {
    *os << "stream            : in flight (no fin record yet)\n";
  }
  return Status::Ok();
}

Status CmdEval(const FlagMap& flags, std::ostringstream* os) {
  auto path = flags.Get("program");
  if (!path.has_value()) return InvalidArgumentError("--program is required");
  auto text = ReadFile(*path);
  if (!text.ok()) return text.status();
  auto program = ParseProgram(*text);
  if (!program.ok()) return program.status();
  *os << "program is feasible\n";
  *os << program->schedule.ToString(program->tree);
  PrintCosts(program->tree, program->schedule, os);
  auto simulate = flags.GetInt("simulate", 0);
  if (!simulate.ok()) return simulate.status();
  if (*simulate > 0) {
    BCAST_RETURN_IF_ERROR(
        Simulate(program->tree, program->schedule, *simulate, os));
  }
  return Status::Ok();
}

Status CmdVerify(const FlagMap& flags, std::ostringstream* os) {
  auto path = flags.Get("program");
  if (!path.has_value()) return InvalidArgumentError("--program is required");
  auto text = ReadFile(*path);
  if (!text.ok()) return text.status();
  // The lenient parse accepts infeasible grids so the verifier can report
  // every violation; ParseProgram would stop at the first problem.
  auto raw = ParseProgramLenient(*text);
  if (!raw.ok()) return raw.status();

  VerifyReport report = AllocationVerifier(raw->tree).VerifyGrid(
      raw->num_channels, raw->declared_slots, raw->grid);
  if (!report.ok()) {
    *os << report.ToString();
    return FailedPreconditionError(*path + ": allocation is not feasible (" +
                                   std::to_string(report.violations.size()) +
                                   " violation(s))");
  }
  *os << "program is feasible\n";
  *os << "nodes             : " << raw->tree.num_nodes() << " ("
      << raw->tree.num_index_nodes() << " index, "
      << raw->tree.num_data_nodes() << " data)\n";
  *os << "channels          : " << raw->num_channels << "\n";
  *os << "cycle length      : " << raw->declared_slots << " slots\n";
  if (report.priced) {
    *os << "average data wait : " << report.recomputed_data_wait
        << " buckets\n";
  }
  return Status::Ok();
}

Status CmdInfo(const FlagMap& flags, std::ostringstream* os) {
  auto tree = LoadTree(flags);
  if (!tree.ok()) return tree.status();
  *os << "nodes             : " << tree->num_nodes() << " ("
      << tree->num_index_nodes() << " index, " << tree->num_data_nodes()
      << " data)\n";
  *os << "depth             : " << tree->depth() << " levels\n";
  *os << "widest level      : " << tree->max_level_width() << " nodes\n";
  *os << "total data weight : " << tree->total_data_weight() << "\n";
  *os << "expected probes   : "
      << WeightedPathLength(*tree) / tree->total_data_weight() << "\n";
  *os << "1-ch wait floor   : " << DataWaitLowerBound(*tree, 1) << " buckets\n";
  *os << tree->ToString();
  return Status::Ok();
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::string* out) {
  std::ostringstream os;
  Status status;
  if (args.empty()) {
    os << kUsage;
    *out = os.str();
    return 2;
  }
  auto flags = FlagMap::Parse(args);
  if (!flags.ok()) {
    *out = flags.status().ToString() + "\n" + kUsage;
    return 2;
  }

  // Observability brackets the whole command: installed before dispatch so
  // every layer's instrumentation lands in one registry/recorder, torn down
  // (and the files written) after the command returns. Without one of these
  // flags nothing is installed and the instrumentation stays a no-op.
  auto metrics_out = flags->Get("metrics-out");
  auto trace_out = flags->Get("trace-out");
  auto telemetry_out = flags->Get("telemetry-out");
  // --telemetry-out forces the registry on: the stream's counter-delta and
  // histogram-window series only flow when instrumentation is recording.
  const bool want_obs = metrics_out.has_value() || trace_out.has_value() ||
                        telemetry_out.has_value() || args[0] == "stats";
  std::optional<obs::Registry> registry;
  std::optional<obs::TraceRecorder> recorder;
  std::optional<obs::ScopedObservability> scope;
  if (want_obs) {
    registry.emplace();
    recorder.emplace();
    scope.emplace(&*registry, &*recorder);
    registry->SetMeta("command", args[0]);
    std::string joined;
    for (size_t i = 1; i < args.size(); ++i) {
      if (i > 1) joined += ' ';
      joined += args[i];
    }
    registry->SetMeta("args", joined);
  }

  // Every report path is probed before dispatch: a misspelled destination
  // is a startup error — exit 1, nothing half-run.
  for (const auto& path : {metrics_out, trace_out}) {
    if (path.has_value()) {
      Status probe = ProbeWritable(*path);
      if (!probe.ok()) {
        *out = "error: " + probe.ToString() + "\n";
        return 1;
      }
    }
  }

  // Telemetry stream setup: the sink opens (and the SLO specs parse) before
  // dispatch, so a bad path or spec is a startup error — exit 1, nothing
  // half-run. Commands that cannot stream reject a non-null sink themselves.
  TelemetryParams telemetry;
  std::optional<obs::JsonlFileSink> telemetry_sink;
  if (auto slo = flags->Get("slo");
      slo.has_value() && !telemetry_out.has_value()) {
    *out = "error: --slo requires --telemetry-out (SLO verdicts ride the "
           "telemetry stream)\n";
    return 1;
  }
  if (telemetry_out.has_value()) {
    if (args[0] != "simulate" && args[0] != "popsim") {
      *out = "error: --telemetry-out is only supported by `simulate "
             "--cycles` and `popsim`\n";
      return 1;
    }
    if (auto slo = flags->Get("slo"); slo.has_value()) {
      auto specs = obs::ParseSloSpecList(*slo);
      if (!specs.ok()) {
        *out = "error: " + specs.status().ToString() + "\n";
        return 1;
      }
      telemetry.slos = std::move(specs).value();
    }
    auto sink = obs::JsonlFileSink::Open(*telemetry_out);
    if (!sink.ok()) {
      *out = "error: " + sink.status().ToString() + "\n";
      return 1;
    }
    telemetry_sink.emplace(std::move(sink).value());
    telemetry.sink = &*telemetry_sink;
    telemetry.registry = &*registry;
    telemetry.path = *telemetry_out;
  }

  // Set when a budgeted plan was served degraded (anytime incumbent,
  // heuristic fallback, or the adaptive server's stale/backoff ladder): the
  // command still succeeds, but exits 3 so scripts can tell a degraded serve
  // from the exact optimum.
  bool degraded = false;
  if (args[0] == "plan") {
    status = CmdPlan(*flags, &os, &degraded);
  } else if (args[0] == "simulate") {
    status = CmdSimulate(*flags, &os, &degraded, telemetry);
  } else if (args[0] == "popsim") {
    status = CmdPopSim(*flags, &os, &degraded, telemetry);
  } else if (args[0] == "top") {
    status = CmdTop(*flags, &os);
  } else if (args[0] == "eval") {
    status = CmdEval(*flags, &os);
  } else if (args[0] == "verify") {
    status = CmdVerify(*flags, &os);
  } else if (args[0] == "info") {
    status = CmdInfo(*flags, &os);
  } else {
    // `stats` (Parse has rejected any unknown command) runs with the
    // registry always on and appends a human-readable metrics dump — the
    // quickest way to see the counters.
    status = CmdStats(*flags, &os, &degraded);
    if (status.ok()) os << obs::FormatMetricsHuman(registry->Snapshot());
  }

  // Uninstall before snapshotting so totals are exact (workers joined, no
  // concurrent writers left).
  scope.reset();
  if (status.ok() && metrics_out.has_value()) {
    status = obs::WriteMetricsJson(registry->Snapshot(), *metrics_out);
    if (status.ok()) os << "wrote metrics to " << *metrics_out << "\n";
  }
  if (status.ok() && trace_out.has_value()) {
    status = obs::WriteChromeTraceJson(*recorder, *trace_out);
    if (status.ok()) os << "wrote trace to " << *trace_out << "\n";
  }

  if (!status.ok()) {
    os << "error: " << status.ToString() << "\n";
    *out = os.str();
    return 1;
  }
  *out = os.str();
  return degraded ? 3 : 0;
}

}  // namespace bcast
