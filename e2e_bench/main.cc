// ldl_e2e_bench -- the end-to-end LDL1 serving benchmark (README.md).
//
//   ldl_e2e_bench --workload anc_serve|young_magic|org_sets --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE] [--git-rev REV]
//
// One client thread drives one process in a closed loop. --trace 0 measures
// the end-to-end metrics through ldl::Service for S seconds; --trace 1
// replays a fixed-length prefix of the same op stream twice, untraced
// through ldl::Service and traced through the composed public calls, and
// reports the per-layer metrics. Every answer is checked against the
// workload's own oracle. The last stdout line is the result object; the line
// before it records the run (seed, sizes, op counts, build) and the metrics
// that apply only to some workloads.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"

namespace ldl_bench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-rev") {
      args->git_rev = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)(uint64_t seed);
};
constexpr WorkloadEntry kWorkloads[] = {
    {"anc_serve", MakeAncServe},
    {"young_magic", MakeYoungMagic},
    {"org_sets", MakeOrgSets},
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  for (const WorkloadEntry& entry : kWorkloads) {
    if (name == entry.name) return entry.make(seed);
  }
  return nullptr;
}

bool KnownWorkload(const std::string& name) {
  for (const WorkloadEntry& entry : kWorkloads) {
    if (name == entry.name) return true;
  }
  return false;
}

// Ordered name -> (value, unit) list, printed as a JSON object body.
class MetricList {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out;
    char buf[64];
    for (size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
      out += (i == 0 ? "\"" : ", \"") + items_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out;
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few

  void Record(const OpOutcome& outcome) {
    ++attempted;
    if (outcome.ok) return;
    ++failed;
    if (errors.size() < 5) errors.push_back(outcome.error);
  }
};

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string RunRecord(const Args& args, const Workload& workload,
                      const Tally& tally, const std::string& extra) {
  std::string errors;
  for (const std::string& e : tally.errors) {
    errors += (errors.empty() ? "" : ", ") + JsonString(e);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g",
                tally.attempted == 0
                    ? 0.0
                    : static_cast<double>(tally.failed) /
                          static_cast<double>(tally.attempted));
  return "{\"run\": {\"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"eval_threads\": 1, \"clients\": 1" +
         ", \"git_revision\": " + JsonString(args.git_rev) +
         ", \"build_type\": " + JsonString(LDL_BENCH_BUILD_TYPE) +
         ", \"sizes\": {" + workload.SizesJson() + "}" +
         ", \"ops\": {" + workload.OpCountsJson() + "}" +
         ", \"ops_failed_frac\": " + buf + ", \"errors\": [" + errors + "]" +
         extra + "}}";
}

void PrintResult(const Tally& tally, const MetricList& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              metrics.Json().c_str());
  std::fflush(stdout);
}

struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Backend> backend;
};

// Generates the workload, loads it into a fresh Service and prepares the
// goals. Returns the set-up seconds; the Load alone is one materialize
// sample.
ldl::StatusOr<double> SetUp(const Args& args, E2eSamples* samples, Setup* out) {
  const Clock::time_point start = Clock::now();
  out->workload = MakeWorkload(args.workload, args.seed);
  const std::string text = out->workload->ProgramText();
  const Clock::time_point load_start = Clock::now();
  out->backend = MakeServiceBackend(samples);
  LDL_RETURN_IF_ERROR(out->backend->Load(text));
  samples->materialize_ms.Add(SecondsBetween(load_start, Clock::now()) * 1e3);
  LDL_RETURN_IF_ERROR(out->workload->PrepareGoals(out->backend.get()));
  return SecondsBetween(start, Clock::now());
}

// The backend the op stream runs on. It is replaced by a fresh one from
// `make`, loaded and prepared outside all timing, whenever the workload's
// OpsPerService() ops have run on it.
struct Served {
  std::unique_ptr<Backend> backend;
  std::function<std::unique_ptr<Backend>()> make;
  size_t ops = 0;

  OpOutcome RunOp(Workload& workload, OpContext* ctx) {
    const size_t per_service = workload.OpsPerService();
    if (per_service != 0 && ops == per_service) {
      ops = 0;
      const ldl::Status status = ctx->Excluded([&]() -> ldl::Status {
        backend.reset();
        backend = make();
        LDL_RETURN_IF_ERROR(backend->Load(workload.ProgramText()));
        return workload.PrepareGoals(backend.get());
      });
      if (!status.ok()) return {false, "reload: " + status.ToString()};
    }
    ++ops;
    return workload.RunOp(backend.get(), ctx);
  }
};

OpOutcome FinalCheck(Backend* backend, const Workload& workload) {
  ldl::Status status = CheckFinalModel(backend->published(), backend->factory(),
                                       workload.ProgramText());
  if (status.ok()) return {};
  return {false, "end of run: " + status.ToString()};
}

// Seconds of timed loop between two set-up probes. Each probe sets the
// workload up once more (one setup_s and one materialize_ms sample).
// Spreading many of them over the run, instead of repeating set-up before
// it, keeps a slow spell of the machine at start-up from deciding both
// metrics; on a shared virtual machine set-up time swings between two
// levels (1.8x apart) in spells of a fraction of a second.
constexpr double kSetUpProbeEvery = 0.5;

// Reads from `fd` until `size` bytes or end of file; returns the bytes read.
size_t ReadFull(int fd, void* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = read(fd, static_cast<char*>(data) + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  return got;
}

// A child process that sets the workload up once more each time it is
// asked, and replies with the set-up seconds and Load milliseconds. It is
// forked before the served Service exists, so its memory never counts in
// peak_rss_mb and it copies none of the served model. The caller waits for
// each reply, so probe and loop never share the CPU. The engine runs no
// threads of its own at num_threads = 1, so forking is safe.
class SetUpProber {
 public:
  explicit SetUpProber(const Args& args) {
    int request[2];
    int reply[2];
    if (pipe(request) != 0) return;
    if (pipe(reply) != 0) {
      close(request[0]);
      close(request[1]);
      return;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = fork();
    if (pid_ == 0) {
      close(request[1]);
      close(reply[0]);
      char go;
      while (ReadFull(request[0], &go, 1) == 1) {
        E2eSamples samples;
        Setup probe;
        ldl::StatusOr<double> seconds = SetUp(args, &samples, &probe);
        const double out[2] = {seconds.ok() ? *seconds : -1.0,
                               samples.materialize_ms.Median()};
        if (write(reply[1], out, sizeof(out)) != sizeof(out)) break;
      }
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    if (pid_ < 0) {
      close(request[1]);
      close(reply[0]);
      return;
    }
    request_ = request[1];
    reply_ = reply[0];
  }

  // Closing the request pipe ends the child; waits until it has exited.
  ~SetUpProber() {
    if (pid_ <= 0) return;
    close(request_);
    close(reply_);
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }

  SetUpProber(const SetUpProber&) = delete;
  SetUpProber& operator=(const SetUpProber&) = delete;

  // One set-up in the child: (set-up seconds, Load milliseconds).
  ldl::StatusOr<std::pair<double, double>> Probe() {
    const char go = 1;
    double in[2];
    if (pid_ <= 0 || write(request_, &go, 1) != 1 ||
        ReadFull(reply_, in, sizeof(in)) != sizeof(in) || in[0] < 0) {
      return ldl::InternalError("set-up probe failed in its child process");
    }
    return std::make_pair(in[0], in[1]);
  }

 private:
  pid_t pid_ = -1;
  int request_ = -1;
  int reply_ = -1;
};

// The read latency the bounded query_us metrics report: the geometric
// mean, over the strategies the workload issues, of each strategy's own
// quantile q, so a regression of x in any one of n strategies moves it by
// about x / n, whatever that strategy's share of the time. A median of all
// reads pooled would sit inside one strategy's range, where a regression
// confined to another strategy does not move it.
double ReadQuantile(const E2eSamples& samples, double q) {
  double log_sum = 0;
  int strategies = 0;
  for (const Samples* s : samples.reads()) {
    if (s->empty()) continue;
    log_sum += std::log(s->Quantile(q));
    ++strategies;
  }
  return strategies == 0 ? 0 : std::exp(log_sum / strategies);
}

// True once every strategy the workload issues has enough reads for a p99.
bool ReadsSupportP99(const E2eSamples& samples) {
  bool any = false;
  for (const Samples* s : samples.reads()) {
    if (s->empty()) continue;
    if (!s->SupportsP99()) return false;
    any = true;
  }
  return any;
}

size_t ReadCount(const E2eSamples& samples) {
  size_t reads = 0;
  for (const Samples* s : samples.reads()) reads += s->size();
  return reads;
}

int RunUntraced(const Args& args) {
  E2eSamples samples;
  Samples setup_s;
  SetUpProber prober(args);
  Setup setup;
  ldl::StatusOr<double> first = SetUp(args, &samples, &setup);
  if (!first.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", first.status().ToString().c_str());
    return 1;
  }
  setup_s.Add(*first);
  Workload& workload = *setup.workload;
  Served served{std::move(setup.backend),
                [&samples] { return MakeServiceBackend(&samples); }};

  Tally tally;
  OpContext ctx(nullptr);
  uint64_t ok_ops = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  double next_probe = kSetUpProbeEvery;
  // Run for the requested time, and on until the reads support a p99; a
  // run that cannot get there in three times the budget fails.
  while (elapsed < args.seconds || !ReadsSupportP99(samples)) {
    if (elapsed > 3 * args.seconds) {
      std::fprintf(stderr, "only %zu reads in %.1f s: too few for a p99\n",
                   ReadCount(samples), elapsed);
      return 1;
    }
    if (elapsed >= next_probe) {
      next_probe += kSetUpProbeEvery;
      ctx.Excluded([&] {
        ldl::StatusOr<std::pair<double, double>> probe = prober.Probe();
        if (probe.ok()) {
          setup_s.Add(probe->first);
          samples.materialize_ms.Add(probe->second);
        }
        tally.Record(probe.ok() ? OpOutcome{}
                                : OpOutcome{false, probe.status().ToString()});
      });
    } else {
      const OpOutcome outcome = served.RunOp(workload, &ctx);
      if (outcome.ok) ++ok_ops;
      tally.Record(outcome);
    }
    elapsed = SecondsBetween(start, Clock::now());
  }
  const double busy_s = elapsed - ctx.excluded_s();
  const double peak_rss = PeakRssMb();
  tally.Record(FinalCheck(served.backend.get(), workload));

  MetricList metrics;
  metrics.Add("setup_s", setup_s.Median(), "s");
  metrics.Add("query_us_p50", ReadQuantile(samples, 0.5), "us");
  metrics.Add("query_us_p99", ReadQuantile(samples, 0.99), "us");
  metrics.Add("ops_per_s", static_cast<double>(ok_ops) / busy_s, "1/s");
  metrics.Add("peak_rss_mb", peak_rss, "MB");

  // Per-strategy metrics of the ops this workload issues, and
  // materialize_ms, whose run-to-run spread on a shared machine is too wide
  // to bound.
  MetricList detail;
  detail.Add("materialize_ms", samples.materialize_ms.Median(), "ms");
  std::string drift;
  auto latency = [&](const char* name, const Samples& s, bool p99) {
    if (s.empty()) return;
    detail.Add(std::string(name) + "_p50", s.Median(), "us");
    if (p99 && s.SupportsP99()) {
      detail.Add(std::string(name) + "_p99", s.Quantile(0.99), "us");
    }
  };
  latency("model_query_us", samples.model_query_us, true);
  latency("magic_query_us", samples.magic_query_us, true);
  latency("magic_sup_query_us", samples.magic_sup_query_us, false);
  latency("topdown_query_us", samples.topdown_query_us, true);
  latency("write_visible_us", samples.write_visible_us, true);
  auto half = [&](const char* name, const Samples& s) {
    if (s.size() < 20) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"first_half\": %.17g, \"second_half\": %.17g}",
                  drift.empty() ? "" : ", ", name, s.FirstHalfMedian(),
                  s.SecondHalfMedian());
    drift += buf;
  };
  half("model_query_us_p50", samples.model_query_us);
  half("magic_query_us_p50", samples.magic_query_us);
  half("magic_sup_query_us_p50", samples.magic_sup_query_us);
  half("topdown_query_us_p50", samples.topdown_query_us);
  half("write_visible_us_p50", samples.write_visible_us);
  half("setup_s", setup_s);
  char counts[96];
  std::snprintf(counts, sizeof(counts),
                ", \"loop_s\": %.3f, \"reads\": %zu, \"writes\": %zu",
                elapsed, ReadCount(samples), samples.write_visible_us.size());
  std::printf("%s\n", RunRecord(args, workload, tally,
                                std::string(counts) + ", \"metrics\": {" +
                                    detail.Json() + "}, \"drift\": {" + drift +
                                    "}")
                          .c_str());
  for (const std::string& e : tally.errors) std::fprintf(stderr, "failure: %s\n", e.c_str());
  PrintResult(tally, metrics);
  return 0;
}

// Median self time per call of every span called `name`, in `scale`
// units per second (1e3: ms, 1e6: us); 0 when the layer never ran.
struct LayerTimes {
  std::map<std::string, Samples> self_ns;
  double op_ns = 0;       // Σ root-span durations
  double op_self_ns = 0;  // Σ root-span self time (not covered by a layer)

  explicit LayerTimes(const std::vector<Span>& spans) {
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
      if (s.parent < 0) {
        op_ns += static_cast<double>(s.end_ns - s.start_ns);
        op_self_ns += self;
      } else {
        self_ns[s.name].Add(self);
      }
    }
  }
  double Median(const char* name, double scale) const {
    auto it = self_ns.find(name);
    return it == self_ns.end() ? 0 : it->second.Median() * scale / 1e9;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

int RunTraced(const Args& args) {
  Tally tally;
  // 1. The untraced reference: the stream's first ops through ldl::Service.
  E2eSamples samples;
  Setup setup;
  ldl::StatusOr<double> setup_s = SetUp(args, &samples, &setup);
  if (!setup_s.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", setup_s.status().ToString().c_str());
    return 1;
  }
  const size_t ops = setup.workload->TracedOps();
  double untraced_s = 0;
  {
    Served served{std::move(setup.backend),
                  [&samples] { return MakeServiceBackend(&samples); }};
    OpContext plain(nullptr);
    const Clock::time_point plain_start = Clock::now();
    for (size_t i = 0; i < ops; ++i) {
      tally.Record(served.RunOp(*setup.workload, &plain));
    }
    untraced_s = SecondsBetween(plain_start, Clock::now()) - plain.excluded_s();
  }
  setup = Setup();

  // 2. The same ops again, traced. Op 0 traces the initial materialization
  // through its layers; the writer's own load is set-up.
  Tracer tracer;
  LayerCounters counters;
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  std::unique_ptr<Backend> backend = MakeTracedBackend(&tracer, &counters);
  const std::string text = workload->ProgramText();
  OpContext ctx(&tracer);
  {
    ctx.BeginOp("op.materialize");
    ldl::Status status = backend->Materialize(text);
    ctx.EndOp();
    ldl::Status load = status.ok() ? backend->Load(text) : status;
    if (load.ok()) load = workload->PrepareGoals(backend.get());
    if (!load.ok()) {
      std::fprintf(stderr, "traced set-up failed: %s\n", load.ToString().c_str());
      return 1;
    }
  }
  Served served{std::move(backend),
                [&tracer, &counters] { return MakeTracedBackend(&tracer, &counters); }};
  for (size_t i = 0; i < ops; ++i) {
    tally.Record(served.RunOp(*workload, &ctx));
  }
  tally.Record(FinalCheck(served.backend.get(), *workload));

  const LayerTimes times(tracer.spans());
  // Σ op time of the replayed ops: the root spans after op 0, in tracer
  // time, which leaves out the benchmark's own paused work.
  double traced_s = 0;
  for (const Span& s : tracer.spans()) {
    if (s.parent < 0 && s.op > 1) traced_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
  }
  const ldl::EvalStats& full = counters.full;
  ldl::EvalStats all = counters.full;
  all.Add(counters.maintain);
  all.Add(counters.saturate);
  const double writes = static_cast<double>(counters.writes);

  MetricList m;
  m.Add("parser.parse_ms", times.Median("parser.parse", 1e3), "ms");
  m.Add("rewrite.expand_ms", times.Median("rewrite.expand", 1e3), "ms");
  m.Add("rewrite.magic_us", times.Median("rewrite.magic", 1e6), "us");
  m.Add("rewrite.magic_rules",
        Ratio(static_cast<double>(counters.magic_rules),
              static_cast<double>(counters.magic_rewrites)),
        "count");
  m.Add("program.lower_ms", times.Median("program.lower", 1e3), "ms");
  m.Add("program.wellformed_ms", times.Median("program.wellformed", 1e3), "ms");
  m.Add("program.stratify_ms", times.Median("program.stratify", 1e3), "ms");
  m.Add("program.strata", static_cast<double>(counters.strata), "count");
  m.Add("eval.full_ms", times.Median("eval.full", 1e3), "ms");
  m.Add("eval.facts_derived", static_cast<double>(full.facts_derived), "count");
  m.Add("eval.tuples_matched", static_cast<double>(full.tuples_matched), "count");
  m.Add("eval.index_probes", static_cast<double>(full.index_probes), "count");
  m.Add("eval.probe_hit_ratio",
        Ratio(static_cast<double>(full.probe_hits),
              static_cast<double>(full.index_probes)),
        "ratio");
  m.Add("eval.rounds", static_cast<double>(full.iterations), "count");
  m.Add("eval.plan_cache_hits", static_cast<double>(full.plan_cache_hits), "count");
  m.Add("eval.plans_reordered", static_cast<double>(full.plans_reordered), "count");
  m.Add("eval.replans", static_cast<double>(full.replans), "count");
  m.Add("eval.saturate_us", times.Median("eval.saturate", 1e6), "us");
  m.Add("eval.saturate_facts", static_cast<double>(counters.saturate.facts_derived),
        "count");
  m.Add("eval.magic_answer_us", times.Median("eval.magic_answer", 1e6), "us");
  m.Add("eval.topdown_us", times.Median("eval.topdown", 1e6), "us");
  m.Add("eval.topdown_expansions", static_cast<double>(counters.topdown_expansions),
        "count");
  m.Add("eval.topdown_answers", static_cast<double>(counters.topdown_answers),
        "count");
  m.Add("eval.probe_query_us", times.Median("eval.probe_query", 1e6), "us");
  m.Add("eval.answers_per_query",
        Ratio(static_cast<double>(counters.model_answers),
              static_cast<double>(counters.model_queries)),
        "count");
  m.Add("eval.maintain_us", times.Median("eval.maintain", 1e6), "us");
  m.Add("eval.strata_delta", static_cast<double>(counters.maintain.strata_delta),
        "count");
  m.Add("eval.strata_regrown", static_cast<double>(counters.maintain.strata_regrown),
        "count");
  m.Add("eval.strata_recomputed",
        static_cast<double>(counters.maintain.strata_recomputed), "count");
  m.Add("eval.strata_overdeleted",
        static_cast<double>(counters.maintain.strata_overdeleted), "count");
  m.Add("eval.rederive_rounds",
        static_cast<double>(counters.maintain.rederive_rounds), "count");
  m.Add("eval.count_decrements",
        static_cast<double>(counters.maintain.count_decrements), "count");
  m.Add("eval.full_fallback_frac",
        Ratio(static_cast<double>(counters.full_fallbacks), writes), "ratio");
  m.Add("eval.groups_built", static_cast<double>(all.groups_built), "count");
  m.Add("eval.group_reuse_ratio",
        Ratio(static_cast<double>(all.groups_reused),
              static_cast<double>(all.groups_built + all.groups_reused)),
        "ratio");
  m.Add("eval.dead_row_ratio", counters.dead_row_ratio, "ratio");
  m.Add("term.set_interns", static_cast<double>(all.set_interns), "count");
  m.Add("ldl.stage_us", times.Median("ldl.stage", 1e6), "us");
  m.Add("ldl.publish_us", times.Median("ldl.publish", 1e6), "us");
  m.Add("ldl.first_publish_ms", times.Median("ldl.first_publish", 1e3), "ms");
  m.Add("ldl.seed_edb_us", times.Median("ldl.seed_edb", 1e6), "us");
  m.Add("ldl.rows_copied_per_write",
        Ratio(static_cast<double>(counters.rows_copied),
              static_cast<double>(counters.publishes)),
        "count");
  m.Add("ldl.rows_copied_per_changed_fact",
        Ratio(static_cast<double>(counters.rows_copied),
              static_cast<double>(counters.changed_facts)),
        "ratio");
  m.Add("ldl.analyses_shared_ratio",
        Ratio(static_cast<double>(counters.analyses_shared),
              static_cast<double>(counters.publishes)),
        "ratio");
  m.Add("trace.overhead_frac", Ratio(traced_s, untraced_s) - 1, "ratio");
  m.Add("trace.uncovered_frac", Ratio(times.op_self_ns, times.op_ns), "ratio");

  if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  char extra[160];
  std::snprintf(extra, sizeof(extra),
                ", \"traced_ops\": %zu, \"spans\": %zu, \"untraced_s\": %.6f, "
                "\"traced_s\": %.6f",
                ops, tracer.spans().size(), untraced_s, traced_s);
  std::printf("%s\n", RunRecord(args, *workload, tally, extra).c_str());
  for (const std::string& e : tally.errors) std::fprintf(stderr, "failure: %s\n", e.c_str());
  PrintResult(tally, m);
  return 0;
}

}  // namespace
}  // namespace ldl_bench

int main(int argc, char** argv) {
  ldl_bench::Args args;
  if (!ldl_bench::ParseArgs(argc, argv, &args) ||
      !ldl_bench::KnownWorkload(args.workload)) {
    std::fprintf(stderr,
                 "usage: ldl_e2e_bench --workload anc_serve|young_magic|org_sets "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--git-rev REV]\n");
    return 2;
  }
  const std::string build_type = LDL_BENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "refusing to record from a %s build\n", build_type.c_str());
    return 2;
  }
  return args.trace ? ldl_bench::RunTraced(args) : ldl_bench::RunUntraced(args);
}
