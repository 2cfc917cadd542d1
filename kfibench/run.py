#!/usr/bin/env python3
"""kfi campaign benchmark.

    python3 kfibench/run.py --workload abc-inproc --seed 2003 --seconds 55 --trace 0

Builds the harness (kfibench.cc) and the kfi library from source into
$CARGO_TARGET_DIR (default .bench_build), then measures one workload:

  --trace 0  repeats cold, untraced repetitions (each a fresh process)
             while another one still fits in --seconds (at least
             MIN_REPS) and reports the end-to-end metrics as medians over
             the repetitions.  Repetition r runs the population at seed
             SEED + r, so one run averages over several populations;
  --trace 1  runs the population once serially with a span around every
             library call, plus the untraced baselines, and reports the
             per-layer metrics.

Every repetition is checked: pinned digests at seed 2003, cross-path
digest equality at every seed (repetitions, the traced serial path, the
one- and two-worker baselines and the sharded path must agree, through a
digest ledger kept in the build directory), missing runs, and the smoke
shape oracles.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit status is non-zero when
any check fails.  METRICS.md documents every metric.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Both run the same A/B/C smoke population, in process or sharded.
WORKLOADS = ["abc-inproc", "abc-sharded"]

# Digests of the A/B/C smoke population at seed 2003: the fold over the three
# campaigns and each campaign's own digest.
PINNED_SEED = 2003
PINNED = {"fold": "54fdd95d1638c920", "A": "eaea7ef6dd57b6b6",
          "B": "b25bff4602af7999", "C": "b8b78ee55f71f05f"}

# Runs per campaign.  The smoke targets cover every site of a fixed
# function list, so the counts do not depend on the seed.
RUNS = {"A": 674, "B": 120, "C": 48}

# Workers of the untraced campaign (kWorkers in kfibench.cc).
WORKERS = 2
MIN_REPS = 2
REP_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880

OUTCOME_CLASSES = ["not_activated", "not_manifested", "fail_silence",
                   "crash", "hang"]
CAMPAIGNS = ["A", "B", "C"]
# Standard percentiles the tail is reported at: the highest one with at
# least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = [50, 90, 95, 98, 99, 99.9]
TAIL_MIN_BEYOND = 10


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- build ----

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out_dir):
    """Configures (once) and builds the harness; returns the binary."""
    cmake_dir = os.path.join(out_dir, "kfibench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        code, _ = run_group(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(cmake_dir, "kfibench")


def run_group(argv, timeout, stdout=subprocess.PIPE, env=None):
    """Runs argv in its own process group and waits for it.  On timeout
    or interruption the whole group is killed (compilers under make,
    forked campaign workers under the harness) before re-raising."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=sys.stderr, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out


def run_harness(binary, args):
    """Runs one harness process to completion; returns its JSON record."""
    env = dict(os.environ)
    env.pop("KFI_EXEC", None)
    env.pop("KFI_JOBS", None)
    code, out = run_group([binary] + args, REP_TIMEOUT_S, env=env)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError("kfibench exited %d" % code)
    return json.loads(lines[-1])


# ---- correctness ----

class Ledger:
    """Digests seen per seed, shared by every path and run in one build
    directory: the first digest recorded for a seed is the reference
    every later run must reproduce."""

    def __init__(self, path):
        self.path = path
        self.data = {}
        if path and os.path.exists(path):
            with open(path) as f:
                self.data = json.load(f)

    def get(self, seed):
        return self.data.get(str(seed), {})

    def record(self, seed, digests):
        entry = self.data.setdefault(str(seed), {})
        for key, value in digests.items():
            entry.setdefault(key, value)
        if self.path:
            tmp = self.path + ".tmp"
            with open(tmp, "w") as f:
                json.dump(self.data, f, indent=1, sort_keys=True)
            os.replace(tmp, self.path)


def judge(record, ledger):
    """Checks one harness record; returns (attempted, failed, problems).

    A campaign whose digest disagrees with its reference, or whose
    sampled runs re-execute differently, counts all of its runs as
    failed; missing runs count as failed too.  References are the pinned
    digests at seed 2003 and the ledger at every seed.
    """
    seed = record["seed"]
    pinned = PINNED if seed == PINNED_SEED else {}
    seen = ledger.get(seed)
    problems = []
    attempted = 0
    failed = 0
    reported = {camp["name"]: camp for camp in record["campaigns"]}
    for name, expected in RUNS.items():
        camp = reported.get(name)
        if camp is None:
            problems.append("campaign %s missing" % name)
            attempted += expected
            failed += expected
            continue
        if camp["expected"] != expected:
            problems.append("campaign %s has %d targets, expected %d" % (
                name, camp["expected"], expected))
        attempted += expected
        missing = max(0, expected - camp["results"])
        wrong = False
        if camp.get("replay_mismatches"):
            problems.append("campaign %s: %d sampled runs differ on replay" % (
                name, camp["replay_mismatches"]))
            wrong = True
        for source, refs in (("pinned", pinned), ("earlier", seen)):
            ref = refs.get(name)
            if ref is not None and ref != camp["digest"]:
                problems.append("campaign %s digest %s != %s %s" % (
                    name, camp["digest"], source, ref))
                wrong = True
        failed += expected if wrong else missing
        if missing:
            problems.append("campaign %s: %d runs missing" % (name, missing))
    folds = {"fold": record["fold"]}
    # Cross-path folds reported by a traced record.
    for key in ("w1_fold", "w2_fold"):
        if key in record:
            folds[key] = record[key]
    for key, value in folds.items():
        for source, refs in (("pinned", pinned), ("earlier", seen)):
            ref = refs.get("fold")
            if ref is not None and ref != value:
                problems.append("%s %s != %s fold %s" % (key, value, source,
                                                         ref))
                failed = attempted
    if len(set(folds.values())) > 1:
        problems.append("paths disagree: %s" % folds)
        failed = attempted
    for key in ("worker_ok", "aggregate_ok", "w1_ok", "w2_ok"):
        if record.get(key) is False:
            problems.append(key + " is false")
            failed = attempted
    # The smoke shape oracles' bands are calibrated on the seed-2003
    # populations; elsewhere correctness is cross-path equality and a
    # failing oracle is reported, not fatal.
    if record["oracles_failed"]:
        message = "%d of %d smoke shape oracles failed: %s" % (
            record["oracles_failed"], record["oracles"],
            ", ".join(record.get("oracles_failing", [])))
        if seed == PINNED_SEED:
            problems.append(message)
        else:
            print("# note: seed %d: %s" % (seed, message), flush=True)
    if not (record.get("optimized") and record.get("ndebug")):
        problems.append("not an optimized NDEBUG build")
    if not problems:
        digests = {c["name"]: c["digest"] for c in record["campaigns"]}
        digests["fold"] = record["fold"]
        ledger.record(seed, digests)
    return attempted, failed, problems


def info_line(record):
    return "# kfibench: workload=%s seed=%d engine=%s (id %d) build=%s " \
           "flags=\"%s\" nproc=%d" % (
               record["workload"], record["seed"], record["engine"],
               record["engine_id"], record["build_type"], record["cxx_flags"],
               record["nproc"])


# ---- span analysis ----

def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval covered by its children (overlapping children count once)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        intervals = sorted(
            (max(c["start"], span["start"]), min(c["end"], span["end"]))
            for c in children.get(span["id"], []))
        covered = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def tail_percentile(n):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples above it, as (percentile, samples beyond); (None, 0) when
    even the median has fewer."""
    best = (None, 0)
    for p in TAIL_LADDER:
        beyond = n - math.ceil(n * p / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            best = (p, beyond)
    return best


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * p / 100.0))
    return sorted_values[rank - 1]


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(record, spans):
    """Per-layer metrics of one traced record (see METRICS.md); layers
    a workload does not take report 0."""
    selfs = self_times(spans)
    dur = lambda s: s["end"] - s["start"]
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    busy = lambda name: sum(dur(s) for s in by_name.get(name, []))
    runs = by_name.get("inject.run", [])
    run_ms = sorted(dur(s) * 1000.0 for s in runs)
    tail_p, beyond = tail_percentile(len(runs))
    run_busy = sum(dur(s) for s in runs)
    root = by_name["workload"][0]

    m = {}
    m["kernel.build_s"] = (record["kernel_build_s"], "s")
    m["workloads.build_s"] = (record["workloads_build_s"], "s")
    m["profile.s"] = (record["profile_s"], "s")
    m["inject.golden_s"] = (busy("inject.golden"), "s")
    m["inject.golden_builds"] = (record.get("golden_builds", 0), "count")
    m["inject.targets_s"] = (busy("inject.targets") + busy("inject.order"),
                             "s")
    m["serve.prepare_s"] = (busy("serve.prepare"), "s")
    m["serve.bundles_built"] = (record.get("bundles_built", 0), "count")
    m["serve.bundle_mib"] = (record.get("bundle_bytes", 0) / 2.0**20, "MiB")

    m["inject.run.n"] = (len(runs), "count")
    m["inject.run.busy_s"] = (run_busy, "s")
    m["inject.run.ms_p50"] = (percentile(run_ms, 50), "ms")
    m["inject.run.ms_ptail"] = (
        percentile(run_ms, tail_p) if tail_p else 0.0, "ms")
    m["inject.run.ptail"] = (tail_p or 0, "%")
    m["inject.run.ptail_beyond"] = (beyond, "count")
    for cls in OUTCOME_CLASSES:
        group = [s for s in runs if s["outcome"] == cls]
        m["inject.run.%s.n" % cls] = (len(group), "count")
        m["inject.run.%s.busy_s" % cls] = (sum(dur(s) for s in group), "s")
    for camp in CAMPAIGNS:
        m["inject.campaign.%s.busy_s" % camp] = (
            sum(dur(s) for s in runs if s["campaign"] == camp), "s")

    stats = lambda key: record.get("w1_" + key, 0)
    sim_cycles = stats("pre_trigger_cycles") + stats("post_trigger_cycles")
    m["inject.pre_trigger_mcycles"] = (stats("pre_trigger_cycles") / 1e6,
                                       "Mcycles")
    m["inject.post_trigger_mcycles"] = (stats("post_trigger_cycles") / 1e6,
                                        "Mcycles")
    m["inject.checkpoint_hit_rate"] = (ratio(
        stats("checkpoint_hits"),
        stats("checkpoint_hits") + stats("checkpoint_misses")), "ratio")
    m["inject.reconverged"] = (stats("reconverged"), "count")
    m["machine.sim_mcycles_per_s"] = (ratio(sim_cycles / 1e6, run_busy),
                                      "Mcycles/s")
    m["machine.restores"] = (stats("restores"), "count")
    m["machine.restore_kib_per_run"] = (
        ratio(stats("bytes_restored") / 1024.0, stats("runs")), "KiB")
    m["machine.disk_blocks_restored"] = (stats("disk_blocks_restored"),
                                         "count")
    m["machine.decode_hit_rate"] = (ratio(
        stats("decode_hits"), stats("decode_hits") + stats("decode_misses")),
        "ratio")
    m["machine.block_hit_rate"] = (ratio(
        stats("block_hits"), stats("block_hits") + stats("block_builds")),
        "ratio")
    m["machine.chain_follows"] = (stats("chain_follows"), "count")
    m["machine.block_invalidations"] = (stats("block_invalidations"), "count")
    m["machine.dtlb_hit_rate"] = (ratio(
        stats("dtlb_hits"), stats("dtlb_hits") + stats("dtlb_misses")),
        "ratio")

    sharded = "w2_shards" in record
    m["inject.schedule.chunks"] = (
        0 if sharded else record.get("w2_chunks", 0), "count")
    m["inject.schedule.steals"] = (
        0 if sharded else record.get("w2_steals", 0), "count")
    m["inject.schedule.cpu_util"] = (0.0 if sharded else ratio(
        record.get("w2_campaign_cpu_s", 0),
        record.get("w2_campaign_s", 0) * WORKERS), "ratio")
    for key in ("shards", "steals", "attempts", "workers_failed",
                "workers_signaled", "corrupt_discarded"):
        m["serve." + key] = (
            record.get("w2_" + key, 0) if sharded else 0, "count")
    m["serve.worker_s"] = (busy("serve.worker"), "s")
    m["serve.aggregate_s"] = (busy("serve.aggregate"), "s")
    m["serve.shard_kib"] = (record.get("shard_bytes", 0) / 1024.0, "KiB")
    m["analysis.report_ms"] = (busy("analysis.report") * 1000.0, "ms")
    m["check.oracles"] = (record["oracles"], "count")
    m["check.oracles_failed"] = (record["oracles_failed"], "count")

    traced = (busy("inject.campaign") if not sharded
              else busy("serve.worker") + busy("serve.aggregate"))
    m["trace.overhead"] = (ratio(traced, record["w1_campaign_s"]), "ratio")
    m["trace.root_coverage"] = (
        1.0 - ratio(selfs[root["id"]], dur(root)), "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def self_by_name(spans):
    """Total self time per span name, in first-seen order."""
    selfs = self_times(spans)
    totals = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + selfs[span["id"]]
    return totals


def summary_lines(metrics, spans):
    """The traced run's answer to where a campaign's host time goes."""
    get = lambda k: metrics[k][0]
    busy = get("inject.run.busy_s")
    lines = ["# self time by span:"]
    for name, value in self_by_name(spans).items():
        lines.append("#   %-16s %8.3f s" % (name, value))
    if busy:
        lines.append("# busy share by outcome class (of %.2f s in run_one):"
                     % busy)
        for cls in OUTCOME_CLASSES:
            lines.append("#   %-15s %5d runs  %6.2f s  %5.1f%%" % (
                cls, get("inject.run.%s.n" % cls),
                get("inject.run.%s.busy_s" % cls),
                100.0 * get("inject.run.%s.busy_s" % cls) / busy))
        lines.append("# busy share by campaign:")
        for camp in CAMPAIGNS:
            value = get("inject.campaign.%s.busy_s" % camp)
            if value:
                lines.append("#   %s  %6.2f s  %5.1f%%" % (
                    camp, value, 100.0 * value / busy))
        lines.append("# simulated cycles: pre-trigger %.1fM, post-trigger "
                     "%.1fM" % (get("inject.pre_trigger_mcycles"),
                                get("inject.post_trigger_mcycles")))
    lines.append("# root span covered by children: %.1f%%; tracing overhead "
                 "x%.3f" % (100.0 * get("trace.root_coverage"),
                            get("trace.overhead")))
    return lines


# ---- measurement ----

def e2e_metrics(records, attempted, failed):
    """End-to-end metrics: medians over the untraced repetitions."""
    med = lambda key: statistics.median(r[key] for r in records)
    return {
        "runs_per_s": (statistics.median(
            r["runs"] / r["campaign_s"] for r in records), "runs/s"),
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mib": (med("peak_rss_mib"), "MiB"),
        "ok_frac": (1.0 - ratio(failed, attempted), "ratio"),
    }


def rep_time(records):
    """Mean wall time of the repetitions so far (0 before the first)."""
    if not records:
        return 0.0
    return statistics.mean(r["elapsed_s"] for r in records)


def measure_untraced(binary, args, work, ledger):
    records = []
    attempted = failed = 0
    problems = []
    start = time.monotonic()
    while len(records) < MIN_REPS or (
            time.monotonic() - start + rep_time(records) <= args.seconds):
        rep_dir = os.path.join(work, "rep%d" % len(records))
        harness_args = ["--workload", args.workload,
                        "--seed", str((args.seed + len(records)) % 2**64),
                        "--dir", rep_dir]
        if args.tamper is not None:
            harness_args += ["--tamper", str(args.tamper)]
        rep_start = time.monotonic()
        record = run_harness(binary, harness_args)
        record["elapsed_s"] = time.monotonic() - rep_start
        shutil.rmtree(rep_dir, ignore_errors=True)
        print(info_line(record) + " rep=%d campaign_s=%.3f elapsed_s=%.3f" % (
            len(records), record["campaign_s"], record["elapsed_s"]),
            flush=True)
        a, f, p = judge(record, ledger)
        attempted += a
        failed += f
        problems += p
        records.append(record)
    return attempted, failed, problems, e2e_metrics(records, attempted,
                                                    failed)


def measure_traced(binary, args, work, ledger, out_dir):
    spans_dir = os.path.join(out_dir, "kfibench-spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "%s-seed%d.jsonl" % (
        args.workload, args.seed))
    harness_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--dir", os.path.join(work, "trace"), "--trace",
                    spans_path]
    if args.tamper is not None:
        harness_args += ["--tamper", str(args.tamper)]
    record = run_harness(binary, harness_args)
    print(info_line(record) + " traced", flush=True)
    attempted, failed, problems = judge(record, ledger)
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    metrics = layer_metrics(record, spans)
    for key in ("pre_trigger_cycles", "post_trigger_cycles"):
        if "serial_" + key in record and (
                record["serial_" + key] != record["w1_" + key] or
                record["serial_" + key] != record["w2_" + key]):
            problems.append("simulated %s differ between the traced, "
                            "1-worker and 2-worker runs" % key)
    if metrics["trace.root_coverage"][0] < 0.95:
        problems.append("child spans cover less than 95% of the root span")
    for line in summary_lines(metrics, spans):
        print(line, flush=True)
    return attempted, failed, problems, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Test hook: flips the outcome of result K after the campaign, to
    # prove that the checks catch a wrong result.
    parser.add_argument("--tamper", type=int, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    if not 0 <= args.seed < 2**64:
        log("kfibench: --seed must be in [0, 2^64)")
        return 2
    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log("kfibench: %s" % e)
        return 2
    work = os.path.join(out_dir, "kfibench-work", "%s-%d" % (
        args.workload, os.getpid()))
    # A tampered run must not teach the ledger its wrong digests.
    ledger = Ledger(None if args.tamper is not None else
                    os.path.join(out_dir, "kfibench-digests.json"))
    try:
        if args.trace:
            result = measure_traced(binary, args, work, ledger, out_dir)
        else:
            result = measure_untraced(binary, args, work, ledger)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("kfibench: %s" % e)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed, problems, metrics = result
    for problem in problems:
        log("kfibench: FAIL: " + problem)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
