// kfibench — one measured execution of a kfi campaign workload.
//
//   kfibench --workload abc-inproc|abc-sharded --seed N
//            --dir DIR [--trace SPANS.jsonl] [--tamper K]
//
// Untraced (the default) runs one cold repetition of the workload the
// way a user gets it: library defaults (InjectorOptions{}, KFI_EXEC and
// KFI_JOBS cleared), cold set-up, the campaign at two workers, report
// rendering, then the correctness checks.  Every phase is timed from
// outside the library, around calls to its public entry points.
//
// --trace executes the same population serially, call by call, with a
// span around every call (spans are kept in memory and written to
// SPANS.jsonl at exit), then runs the untraced baselines the per-layer
// figures need: the campaign at two workers (scheduler and service
// counters, CampaignStats) and at one worker (tracing overhead and a
// cross-path digest).
//
// --tamper K flips the outcome of result K (over the concatenated
// campaigns) after the campaign phase; the benchmark's own tests use it
// to prove that the correctness check catches a wrong result.
//
// Prints one JSON object on stdout.  run.py judges correctness (pinned
// digests, cross-path equality) and aggregates repetitions.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/aggregate.h"
#include "analysis/render.h"
#include "analysis/store.h"
#include "check/expectations.h"
#include "inject/campaign.h"
#include "kernel/build.h"
#include "profile/profile.h"
#include "serve/service.h"
#include "workloads/workloads.h"

#ifndef KFIBENCH_CXX_FLAGS
#define KFIBENCH_CXX_FLAGS "unknown"
#endif
#ifndef KFIBENCH_BUILD_TYPE
#define KFIBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace kfi;
using Clock = std::chrono::steady_clock;
using inject::Campaign;

// Both the in-process and the sharded path run at this many workers:
// kfi_campaignd's default, and on a 4-core host the setting whose
// run-to-run spread stays low.
constexpr unsigned kWorkers = 2;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2003;
  std::string dir;
  std::string spans_path;  // non-empty = traced run
  long tamper = -1;
};

struct WorkloadDef {
  std::vector<Campaign> campaigns;
  bool sharded = false;
};

WorkloadDef workload_def(const std::string& name) {
  const std::vector<Campaign> abc = {Campaign::RandomNonBranch,
                                     Campaign::RandomBranch,
                                     Campaign::IncorrectBranch};
  if (name == "abc-inproc") return {abc, false};
  if (name == "abc-sharded") return {abc, true};
  throw std::invalid_argument("unknown workload: " + name);
}

// The smoke population at the benchmark's seed: the library receives
// only these generated configs.
std::vector<inject::CampaignConfig> population(const WorkloadDef& def,
                                               std::uint64_t seed,
                                               unsigned threads) {
  std::vector<inject::CampaignConfig> configs;
  for (const Campaign c : def.campaigns) {
    inject::CampaignConfig config = check::smoke_config(c);
    config.seed = seed;
    config.threads = threads;
    configs.push_back(std::move(config));
  }
  return configs;
}

// Name of the engine the library picked.  Indexed by the enum's value
// rather than by naming enumerators, so the benchmark keeps compiling
// when engines are removed; "engine_id" is printed beside it.
std::string engine_name(machine::ExecEngine engine) {
  static const char* const kNames[] = {"step", "block", "chained",
                                       "threaded", "memfast"};
  const auto id = static_cast<std::size_t>(engine);
  return id < std::size(kNames) ? kNames[id] : "engine" + std::to_string(id);
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 0;
}

// ---- spans ----

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  // Per-run tags (inject.run spans): global run id, campaign, workload
  // and outcome class.
  long run = -1;
  std::string campaign;
  std::string workload;
  std::string outcome;
};

// Records spans in memory; nothing is written until the run ends, so
// file I/O never lands inside a measured interval.
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  int open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.start = now();
    span.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  // Ends span `id` and any span still open inside it.
  Span& close(int id) {
    const double end = now();
    while (!stack_.empty() && stack_.back() >= id) {
      spans_[stack_.back()].end = end;
      stack_.pop_back();
    }
    return spans_[id];
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const { return seconds(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Scoped span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
    if (tracer_ != nullptr) id_ = tracer_->open(std::move(name));
  }
  ~Scope() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int id_ = -1;
};

std::string outcome_class(inject::Outcome outcome) {
  switch (outcome) {
    case inject::Outcome::NotActivated: return "not_activated";
    case inject::Outcome::NotManifested: return "not_manifested";
    case inject::Outcome::FailSilenceViolation: return "fail_silence";
    case inject::Outcome::DumpedCrash: return "crash";
    case inject::Outcome::HangUnknown: return "hang";
  }
  return "unknown";
}

// ---- JSON output ----

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// Flat JSON object builder (keys are fixed identifiers).
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& u64(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  Json& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + quoted(key) + ":" + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    Json j;
    j.u64("id", i).raw("parent", std::to_string(s.parent)).str("name", s.name)
        .num("start", s.start).num("end", s.end);
    if (s.run >= 0) {
      j.raw("run", std::to_string(s.run)).str("campaign", s.campaign)
          .str("workload", s.workload).str("outcome", s.outcome);
    } else if (!s.campaign.empty() || !s.workload.empty()) {
      j.str("campaign", s.campaign).str("workload", s.workload);
    }
    out << j.text() << "\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

// ---- measurements ----

struct Usage {
  double cpu_s = 0;
  double peak_rss_mib = 0;
};

// user+sys CPU of this process and its reaped children, and the larger
// of this process's peak RSS and its largest child's.
Usage usage_now() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  auto cpu = [](const rusage& u) {
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
  };
  Usage usage;
  usage.cpu_s = cpu(self) + cpu(children);
  usage.peak_rss_mib =
      static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
      1024.0;
  return usage;
}

double self_cpu_s() {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_utime.tv_sec + self.ru_stime.tv_sec) +
         static_cast<double>(self.ru_utime.tv_usec + self.ru_stime.tv_usec) /
             1e6;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

// Per-campaign identity: the run count the targets promise, the run
// count delivered, and the campaign's own digest.
std::string campaigns_json(const std::vector<inject::CampaignRun>& runs,
                           const std::vector<std::uint64_t>& expected,
                           const std::vector<std::uint64_t>& mismatches) {
  std::string out = "[";
  for (std::size_t i = 0; i < expected.size(); ++i) {
    Json j;
    const bool have = i < runs.size();
    j.str("name", have ? std::string(inject::campaign_name(runs[i].campaign))
                       : "?")
        .u64("expected", expected[i])
        .u64("results", have ? runs[i].results.size() : 0)
        .str("digest", have ? hex(analysis::results_digest({runs[i]})) : "")
        .u64("replay_mismatches", i < mismatches.size() ? mismatches[i] : 0);
    out += (i ? "," : "") + j.text();
  }
  return out + "]";
}

// Re-executes an evenly spaced sample of the population on a fresh
// one-thread Injector and compares each result's digest with the
// campaign's: a cross-path check that holds at every seed.  Returns the
// mismatch count per campaign.
constexpr std::size_t kReplaySamples = 8;

std::vector<std::uint64_t> replay_mismatches(
    inject::Injector& injector, const std::vector<inject::CampaignRun>& runs) {
  std::vector<std::uint64_t> mismatches(runs.size(), 0);
  std::size_t total = 0;
  for (const inject::CampaignRun& run : runs) total += run.results.size();
  for (std::size_t k = 0; k < kReplaySamples && total > 0; ++k) {
    std::size_t index = k * total / kReplaySamples;
    for (std::size_t c = 0; c < runs.size(); ++c) {
      if (index >= runs[c].results.size()) {
        index -= runs[c].results.size();
        continue;
      }
      const inject::InjectionResult& r = runs[c].results[index];
      analysis::ResultDigest want;
      want.add(r);
      analysis::ResultDigest got;
      got.add(injector.run_one(r.spec));
      if (want.value() != got.value()) ++mismatches[c];
      break;
    }
  }
  return mismatches;
}

void tamper(std::vector<inject::CampaignRun>& runs, long index) {
  if (index < 0) return;
  for (inject::CampaignRun& run : runs) {
    if (static_cast<std::size_t>(index) < run.results.size()) {
      inject::InjectionResult& r = run.results[index];
      r.outcome = r.outcome == inject::Outcome::NotManifested
                      ? inject::Outcome::DumpedCrash
                      : inject::Outcome::NotManifested;
      return;
    }
    index -= static_cast<long>(run.results.size());
  }
}

// Fig 4 / Fig 6 / Fig 7 tables as users render them; returns the
// rendered size so the work is used.
std::size_t render_reports(const std::vector<inject::CampaignRun>& runs) {
  std::size_t bytes = 0;
  for (const inject::CampaignRun& run : runs) {
    bytes += analysis::render_outcome_table(analysis::make_outcome_table(run))
                 .size();
    bytes +=
        analysis::render_crash_causes(analysis::make_crash_causes(run)).size();
    bytes += analysis::render_latency(analysis::make_latency(run)).size();
  }
  return bytes;
}

check::ShapeReport oracles(const std::vector<inject::CampaignRun>& runs) {
  if (runs.size() != 3) {
    check::ShapeReport report;
    report.add({"kfibench.campaigns_present", false, 0.0, {}, "missing runs"});
    return report;
  }
  return check::evaluate_smoke(runs[0], runs[2]);
}

// Common identity block: what ran, on what, and whether it is correct.
void identity(Json& j, const Options& opt,
              const std::vector<inject::CampaignRun>& runs,
              const std::vector<std::uint64_t>& expected,
              const check::ShapeReport& report,
              const std::vector<std::uint64_t>& mismatches = {}) {
  j.str("workload", opt.workload)
      .u64("seed", opt.seed)
      .raw("campaigns", campaigns_json(runs, expected, mismatches))
      .str("fold", hex(analysis::results_digest(runs)))
      .u64("oracles", report.checks.size())
      .u64("oracles_failed", report.failures());
  std::string failing = "[";
  for (const check::CheckResult& check : report.checks) {
    if (!check.pass) failing += (failing.size() > 1 ? "," : "") + quoted(check.oracle);
  }
  j.raw("oracles_failing", failing + "]");
}

void stats_json(Json& j, const std::string& prefix,
                const inject::CampaignStats& s) {
  const machine::PerfStats& p = s.perf;
  j.u64(prefix + "runs", s.runs)
      .u64(prefix + "checkpoint_hits", s.checkpoint_hits)
      .u64(prefix + "checkpoint_misses", s.checkpoint_misses)
      .u64(prefix + "reconverged", s.reconverged)
      .u64(prefix + "pre_trigger_cycles", s.pre_trigger_cycles)
      .u64(prefix + "post_trigger_cycles", s.post_trigger_cycles)
      .u64(prefix + "restores", p.restores)
      .u64(prefix + "bytes_restored", p.bytes_restored)
      .u64(prefix + "disk_blocks_restored", p.disk_blocks_restored)
      .u64(prefix + "decode_hits", p.decode_hits)
      .u64(prefix + "decode_misses", p.decode_misses)
      .u64(prefix + "block_hits", p.block_hits)
      .u64(prefix + "block_builds", p.block_builds)
      .u64(prefix + "chain_follows", p.chain_follows)
      .u64(prefix + "block_invalidations", p.block_invalidations)
      .u64(prefix + "dtlb_hits", p.dtlb_hits)
      .u64(prefix + "dtlb_misses", p.dtlb_misses)
      .u64(prefix + "chunks", s.chunks)
      .u64(prefix + "steals", s.steals);
}

inject::CampaignStats total_stats(const std::vector<inject::CampaignRun>& runs) {
  inject::CampaignStats total;
  for (const inject::CampaignRun& run : runs) {
    total += run.stats;
    total.chunks += run.stats.chunks;
    total.steals += run.stats.steals;
  }
  return total;
}

// kernel, workload images and the profile, each timed on its own.
struct BaseSetup {
  double kernel_s = 0;
  double workloads_s = 0;
  double profile_s = 0;
  const profile::ProfileResult* prof = nullptr;
};

BaseSetup base_setup(Tracer* tracer) {
  BaseSetup b;
  auto t = Clock::now();
  {
    Scope s(tracer, "kernel.build");
    kernel::built_kernel();
  }
  b.kernel_s = seconds(t, Clock::now());
  t = Clock::now();
  {
    // All eight: the profile runs every workload, so building them here
    // keeps profile.s pure profiling.
    Scope s(tracer, "workloads.build");
    for (const workloads::Workload& w : workloads::all_workloads()) {
      workloads::built_workload(w.name);
    }
  }
  b.workloads_s = seconds(t, Clock::now());
  t = Clock::now();
  {
    Scope s(tracer, "profile");
    b.prof = &profile::default_profile();
  }
  b.profile_s = seconds(t, Clock::now());
  return b;
}

void base_setup_json(Json& j, const BaseSetup& b) {
  j.num("kernel_build_s", b.kernel_s)
      .num("workloads_build_s", b.workloads_s)
      .num("profile_s", b.profile_s);
}

// In-process set-up after the base: targets, golden prewarm, order.
struct InprocSetup {
  std::shared_ptr<inject::GoldenCache> cache;
  std::vector<std::vector<inject::InjectionSpec>> targets;
  std::vector<std::vector<std::size_t>> orders;
  std::vector<std::uint64_t> expected;
  double golden_s = 0;
  double targets_s = 0;
};

InprocSetup inproc_setup(const std::vector<inject::CampaignConfig>& configs,
                         const profile::ProfileResult& prof,
                         inject::Injector& injector, Tracer* tracer) {
  InprocSetup s;
  s.cache = injector.cache();
  auto t = Clock::now();
  std::set<std::string> workloads;
  {
    Scope scope(tracer, "inject.targets");
    for (const inject::CampaignConfig& config : configs) {
      s.targets.push_back(inject::campaign_targets(prof, config, nullptr));
      s.expected.push_back(s.targets.back().size());
      for (const inject::InjectionSpec& spec : s.targets.back()) {
        workloads.insert(spec.workload);
      }
    }
  }
  s.targets_s = seconds(t, Clock::now());
  t = Clock::now();
  for (const std::string& w : workloads) {
    const int span = tracer ? tracer->open("inject.golden") : -1;
    s.cache->workload(w);
    if (tracer) tracer->close(span).workload = w;
  }
  s.golden_s = seconds(t, Clock::now());
  t = Clock::now();
  {
    Scope scope(tracer, "inject.order");
    for (const auto& targets : s.targets) {
      s.orders.push_back(inject::campaign_order(injector, targets));
    }
  }
  s.targets_s += seconds(t, Clock::now());
  return s;
}

std::vector<inject::CampaignRun> run_inprocess(
    inject::Injector& injector, const profile::ProfileResult& prof,
    const std::vector<inject::CampaignConfig>& configs) {
  std::vector<inject::CampaignRun> runs;
  for (const inject::CampaignConfig& config : configs) {
    runs.push_back(inject::run_campaign(injector, prof, config));
  }
  return runs;
}

serve::ServiceConfig service_config(const WorkloadDef& def,
                                    const Options& opt, const std::string& dir,
                                    unsigned workers) {
  serve::ServiceConfig config;
  config.campaigns = population(def, opt.seed, 1);
  config.dir = dir;
  config.workers = workers;
  return config;
}

std::vector<std::uint64_t> manifest_counts(const std::string& dir) {
  const std::optional<serve::Manifest> manifest = serve::load_manifest(dir);
  return manifest ? manifest->target_counts : std::vector<std::uint64_t>{};
}

// ---- untraced repetition ----

std::string run_untraced(const Options& opt, const WorkloadDef& def) {
  const auto t0 = Clock::now();
  const BaseSetup base = base_setup(nullptr);
  Json j;
  std::vector<inject::CampaignRun> runs;
  std::vector<std::uint64_t> expected;
  double setup_s = 0;
  double campaign_s = 0;
  std::shared_ptr<inject::GoldenCache> cache;
  if (!def.sharded) {
    inject::Injector injector;
    cache = injector.cache();
    const InprocSetup s = inproc_setup(population(def, opt.seed, kWorkers),
                                       *base.prof, injector, nullptr);
    expected = s.expected;
    const auto t1 = Clock::now();
    setup_s = seconds(t0, t1);
    runs = run_inprocess(injector, *base.prof,
                         population(def, opt.seed, kWorkers));
    campaign_s = seconds(t1, Clock::now());
  } else {
    const serve::ServiceConfig config =
        service_config(def, opt, opt.dir + "/campaign", kWorkers);
    if (!serve::prepare_campaign(config)) {
      throw std::runtime_error("prepare_campaign failed");
    }
    expected = manifest_counts(config.dir);
    const auto t1 = Clock::now();
    setup_s = seconds(t0, t1);
    serve::ServiceResult result = serve::run_service(config, true);
    campaign_s = seconds(t1, Clock::now());
    if (!result.ok) throw std::runtime_error("run_service: " + result.error);
    runs = std::move(result.runs);
  }
  tamper(runs, opt.tamper);
  const auto t2 = Clock::now();
  const std::size_t report_bytes = render_reports(runs);
  const auto t3 = Clock::now();
  const Usage usage = usage_now();
  const check::ShapeReport report = oracles(runs);

  // The in-process replay borrows the warm golden cache; the sharded
  // one builds its own, as the coordinator holds none.
  const auto replayer = cache ? std::make_unique<inject::Injector>(cache)
                              : std::make_unique<inject::Injector>();
  const std::vector<std::uint64_t> mismatches =
      replay_mismatches(*replayer, runs);

  std::uint64_t total = 0;
  for (const inject::CampaignRun& run : runs) total += run.results.size();
  j.str("mode", "run");
  identity(j, opt, runs, expected, report, mismatches);
  j.u64("runs", total)
      .num("setup_s", setup_s)
      .num("campaign_s", campaign_s)
      .num("report_s", seconds(t2, t3))
      .u64("report_bytes", report_bytes)
      .num("wall_s", seconds(t0, t3))
      .num("cpu_s", usage.cpu_s)
      .num("peak_rss_mib", usage.peak_rss_mib);
  return j.text();
}

// ---- traced run ----

std::string run_traced(const Options& opt, const WorkloadDef& def) {
  Tracer tracer;
  Json j;
  std::vector<inject::CampaignRun> runs;
  std::vector<std::uint64_t> expected;
  const int root = tracer.open("workload");
  const BaseSetup base = base_setup(&tracer);
  base_setup_json(j, base);

  if (!def.sharded) {
    inject::Injector injector;
    const std::vector<inject::CampaignConfig> configs =
        population(def, opt.seed, 1);
    const InprocSetup s =
        inproc_setup(configs, *base.prof, injector, &tracer);
    expected = s.expected;
    // The order run_campaign drains at one thread: results land in
    // spec-order slots, executed in the locality order.
    long run_id = 0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const int campaign_span = tracer.open("inject.campaign");
      inject::CampaignRun run;
      run.campaign = configs[c].campaign;
      run.results.resize(s.targets[c].size());
      for (const std::size_t i : s.orders[c]) {
        const int span = tracer.open("inject.run");
        run.results[i] = injector.run_one(s.targets[c][i]);
        Span& closed = tracer.close(span);
        closed.run = run_id++;
        closed.campaign = inject::campaign_name(run.campaign);
        closed.workload = s.targets[c][i].workload;
        closed.outcome = outcome_class(run.results[i].outcome);
      }
      tracer.close(campaign_span).campaign = inject::campaign_name(run.campaign);
      runs.push_back(std::move(run));
    }
    j.num("golden_s", s.golden_s)
        .num("targets_s", s.targets_s)
        .u64("golden_builds", s.cache->golden_builds())
        .u64("serial_pre_trigger_cycles", injector.pre_trigger_cycles())
        .u64("serial_post_trigger_cycles", injector.post_trigger_cycles());
    tamper(runs, opt.tamper);
    {
      Scope scope(&tracer, "analysis.report");
      render_reports(runs);
    }
    check::ShapeReport report;
    {
      Scope scope(&tracer, "check.oracles");
      report = oracles(runs);
    }
    tracer.close(root);
    j.str("mode", "trace");
    identity(j, opt, runs, expected, report);

    // Untraced baselines over the same warm golden cache.
    for (const unsigned workers : {kWorkers, 1u}) {
      inject::Injector base_injector(s.cache);
      const double cpu0 = self_cpu_s();
      const auto t = Clock::now();
      const std::vector<inject::CampaignRun> base_runs = run_inprocess(
          base_injector, *base.prof, population(def, opt.seed, workers));
      const std::string w = "w" + std::to_string(workers) + "_";
      j.num(w + "campaign_s", seconds(t, Clock::now()))
          .num(w + "campaign_cpu_s", self_cpu_s() - cpu0)
          .str(w + "fold", hex(analysis::results_digest(base_runs)));
      stats_json(j, w, total_stats(base_runs));
    }
  } else {
    const std::string dir = opt.dir + "/campaign";
    const serve::ServiceConfig config = service_config(def, opt, dir, 1);
    serve::ServiceResult prepared;
    {
      Scope scope(&tracer, "serve.prepare");
      if (!serve::prepare_campaign(config, &prepared)) {
        throw std::runtime_error("prepare_campaign failed");
      }
    }
    expected = manifest_counts(dir);
    serve::WorkerReport worker;
    {
      Scope scope(&tracer, "serve.worker");
      worker = serve::run_worker(dir, 0, 1);
    }
    serve::ServiceResult aggregated;
    bool aggregate_ok = false;
    {
      Scope scope(&tracer, "serve.aggregate");
      aggregate_ok = serve::aggregate_campaign(dir, true, aggregated);
    }
    runs = std::move(aggregated.runs);
    tamper(runs, opt.tamper);
    {
      Scope scope(&tracer, "analysis.report");
      render_reports(runs);
    }
    check::ShapeReport report;
    {
      Scope scope(&tracer, "check.oracles");
      report = oracles(runs);
    }
    tracer.close(root);
    j.str("mode", "trace");
    identity(j, opt, runs, expected, report);
    j.flag("worker_ok", worker.ok)
        .flag("aggregate_ok", aggregate_ok)
        .u64("bundles_built", prepared.bundles_built)
        .u64("bundle_bytes", dir_bytes(dir + "/bundles"))
        .u64("shard_bytes", dir_bytes(dir + "/shards"));

    // Untraced baselines: fresh shard stores, bundles reused.
    for (const unsigned workers : {kWorkers, 1u}) {
      serve::ServiceConfig base_config = service_config(
          def, opt, opt.dir + "/w" + std::to_string(workers), workers);
      base_config.bundle_dir = dir + "/bundles";
      const auto t = Clock::now();
      const serve::ServiceResult r = serve::run_service(base_config);
      const std::string w = "w" + std::to_string(workers) + "_";
      j.num(w + "campaign_s", seconds(t, Clock::now()))
          .flag(w + "ok", r.ok)
          .str(w + "fold", hex(r.digest))
          .u64(w + "shards", r.shard_count)
          .u64(w + "steals", r.steals)
          .u64(w + "attempts", static_cast<std::uint64_t>(r.attempts))
          .u64(w + "workers_failed", r.workers_failed)
          .u64(w + "workers_signaled", r.workers_signaled)
          .u64(w + "corrupt_discarded", r.corrupt_discarded);
    }
  }
  write_spans(opt.spans_path, tracer.spans());
  j.str("spans", opt.spans_path);
  return j.text();
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "kfibench: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: kfibench --workload NAME --seed N --dir DIR "
               "[--trace SPANS.jsonl] [--tamper K]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        std::size_t end = 0;
        opt.seed = std::stoull(value, &end);
        if (end != value.size()) throw std::invalid_argument(value);
      } else if (arg == "--dir") {
        opt.dir = value;
      } else if (arg == "--trace") {
        opt.spans_path = value;
      } else if (arg == "--tamper") {
        opt.tamper = std::stol(value);
      } else {
        usage_error("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + arg + ": " + value);
    }
  }
  if (opt.workload.empty() || opt.dir.empty()) usage_error("missing option");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  // Measure what users get: the library's defaults, not an engine or a
  // worker count inherited from the environment.
  unsetenv("KFI_EXEC");
  unsetenv("KFI_JOBS");
  const Options opt = parse(argc, argv);
  if (!kOptimized || !kNdebug) {
    std::fprintf(stderr,
                 "kfibench: refusing to measure a build without "
                 "__OPTIMIZE__ and NDEBUG (flags: %s)\n",
                 KFIBENCH_CXX_FLAGS);
    return 3;
  }
  try {
    const WorkloadDef def = workload_def(opt.workload);
    std::filesystem::create_directories(opt.dir);
    std::string record = opt.spans_path.empty() ? run_untraced(opt, def)
                                                : run_traced(opt, def);
    Json info;
    info.str("engine", engine_name(inject::InjectorOptions{}.exec_engine))
        .u64("engine_id",
             static_cast<std::uint64_t>(inject::InjectorOptions{}.exec_engine))
        .str("build_type", KFIBENCH_BUILD_TYPE)
        .str("cxx_flags", KFIBENCH_CXX_FLAGS)
        .flag("optimized", kOptimized)
        .flag("ndebug", kNdebug)
        .u64("nproc", nproc());
    record.pop_back();
    std::printf("%s,%s\n", record.c_str(), info.text().substr(1).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kfibench: %s\n", e.what());
    return 1;
  }
}
