#!/usr/bin/env python3
"""End-to-end benchmark of the Comfort fuzzer (see BENCHMARK.json).

Builds the comfort CLI and perfbench/bench.exe from this checkout with
dune, then measures one workload:

    python3 perfbench/run.py --workload comfort102 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table
    python3 perfbench/run.py --workload workers1 --seeds heldout

With --trace 0 it times whole passes of the workload in fresh processes
until --seconds are used (at least two), scales the time of each part of
a pass (set-up, the campaigns, each CLI process) to a reference host
speed sampled on the same CPU while it ran (see calib.ml), reports the
median of each end-to-end metric and checks the reports: identical
digests across passes, a sample of cases re-judged by the reference
oracle, workers1 against the in-process path, and the CLI against the
library. With --trace 1 it runs the workload once more with spans around
every layer and reports the per-layer metrics. The last line of stdout is
one JSON object.

--seed chooses the cases the correctness checks sample. The measured
cases come from the workload's seed list (--seeds: "rule", the default;
"heldout"; or e.g. "3,9-12"), which is fixed by rule so that every run
measures the same work.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default")
BENCH = os.path.join(BUILD, "perfbench", "bench.exe")
CLI = os.path.join(BUILD, "bin", "comfort_cli.exe")
CALIB = os.path.join(BUILD, "perfbench", "calib.exe")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ["comfort102", "baselines102", "cli-cold", "workers1"]
CLI_BUDGET = 100

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cases_per_s": "1/s",
    "unique_bugs": "count",
    "peak_heap_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "lm.train_s": "s",
    "lm.setup_share_pct": "%",
    "specdb.build_s": "s",
    "generator.ms_per_program": "ms",
    "datagen.ms_per_program": "ms",
    "datagen.mutants_per_program": "count",
    "screen.ms_per_case": "ms",
    "screen.kept_ratio": "ratio",
    "jsparse.ms_per_case": "ms",
    "engines.executions_per_case": "count",
    "engines.exec_per_testbed": "ratio",
    "jsinterp.ref_ms.p50": "ms",
    "jsinterp.ref_ms.tail": "ms",
    "jsinterp.ref_ms.tail_pct": "%",
    "jsinterp.ns_per_fuel": "ns",
    "difftest.case_ms.p50": "ms",
    "difftest.case_ms.tail": "ms",
    "difftest.case_ms.tail_pct": "%",
    "difftest.case_ms.max": "ms",
    "difftest.case_ms.n": "count",
    "difftest.vote_ms_per_case": "ms",
    "difftest.timeout_cases": "count",
    "difftest.timeout_wall_pct": "%",
    "reducer.discoveries": "count",
    "reducer.ms_per_discovery": "ms",
    "reducer.probes_per_discovery": "count",
    "reducer.accept_ratio": "ratio",
    "campaign.residual_ms": "ms",
    "campaign.alloc_mb_per_case": "MB",
    "campaign.major_gcs": "count",
    "campaign.profile_gap_pct": "%",
    "coordinator.respawns": "count",
    "coordinator.kills": "count",
    "coordinator.hangs": "count",
    "ipc.kb_per_case": "KB",
    "trace.overhead_ms": "ms",
    "trace.traced_minus_untraced_ms": "ms",
    "raw.setup_s": "s",
    "raw.wall_s": "s",
    "host.scale": "ratio",
    "self_ms.generator": "ms",
    "self_ms.datagen": "ms",
    "self_ms.screen": "ms",
    "self_ms.difftest.sweep": "ms",
    "self_ms.difftest.vote": "ms",
    "self_ms.reducer": "ms",
}

MIN_PASSES = 2    # two passes at least, so a run can compare their digests
MIN_SETUPS = 5    # set-up samples per run; the median is reported
RUN_LIMIT = 170  # seconds a measurement may take after the build


class BenchError(Exception):
    pass


deadline = None  # set once the build is done


def time_left():
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("out of time (%d s per run)" % RUN_LIMIT)
    return left


def child_env():
    """The environment for every child: production defaults, whatever the
    caller's shell sets (COMFORT_* toggles would select another path)."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("COMFORT_") and k != "OCAMLRUNPARAM"}
    env["DUNE_CACHE"] = "disabled"
    return env


def run(cmd, env=None):
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env or child_env(),
                           capture_output=True, text=True,
                           timeout=time_left())
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    return p


def run_json(cmd, env=None):
    p = run(cmd, env)
    if p.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd[1:3]), p.returncode,
                                               p.stderr.strip()[-400:]))
    sys.stderr.write(p.stderr)
    return json.loads(p.stdout.strip().splitlines()[-1])


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("not a comfort checkout: %s is missing" % needed)
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    p = subprocess.run([dune, "build", "--root", ROOT, "--profile", "release",
                        "perfbench/bench.exe", "perfbench/calib.exe",
                        "bin/comfort_cli.exe"],
                       cwd=ROOT, env=child_env(), capture_output=True,
                       text=True, timeout=890)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-2000:])


def pin_to_one_cpu():
    """Run this process and every child on one CPU, the lowest this
    process may use. The CPUs of a shared host change speed independently
    of each other, so the host-speed samples only say how fast the timed
    work ran if both ran on the same CPU; and the workloads do their work
    on one core at a time."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class HostSpeed:
    """calib.exe sampling the host's speed beside the timed processes, on
    their CPU (see calib.ml). Time the work inside `with HostSpeed() as
    host:`; afterwards host.at_ref_speed() scales each timed part."""

    GAP_S = 0.05  # seconds between samples

    def __enter__(self):
        self.proc = subprocess.Popen([CALIB, str(self.GAP_S)], cwd=ROOT,
                                     env=child_env(), stdout=subprocess.PIPE,
                                     text=True)
        return self

    def __exit__(self, exc_type, *_):
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("the host-speed sampler did not stop")
        if exc_type is None:
            if self.proc.returncode != 0:
                raise BenchError("the host-speed sampler exited %d"
                                 % self.proc.returncode)
            s = json.loads(out.strip().splitlines()[-1])
            self.ref, self.samples = s["ref_s"], s["samples"]
        return False

    def at_ref_speed(self, raw, t0, t1):
        """raw seconds, timed on the wall clock from t0 to t1, at the
        reference host speed: less the processor time the samples took
        from the timed process, times ref_s over the samples' median time
        (that of the three nearest, if fewer fell inside). The median,
        because a sample also pays for the caches the timed process took
        from it, which the mean would count as host slowness."""
        inside = [c for t, c in self.samples if t0 <= t < t1]
        near = inside
        if len(near) < 3:
            mid = (t0 + t1) / 2
            near = [c for _, c in sorted(self.samples,
                                         key=lambda s: abs(s[0] - mid))[:3]]
        return (raw - sum(inside)) * self.ref / median(near)


def until_spent(seconds, one_pass):
    """Passes until --seconds are spent, at least MIN_PASSES, and no more
    once the next would be expected to end past the budget."""
    t0 = time.monotonic()
    n = 0
    results = []
    while True:
        spent = time.monotonic() - t0
        if n >= MIN_PASSES and spent + spent / n > seconds:
            return results
        n += 1
        results.append(one_pass())


# ---------- in-process workloads ----------

def bench_pass(workload, seeds):
    return run_json([BENCH, "pass", "--workload", workload, "--seeds", seeds])


def scale_pass(host, p):
    """A bench.exe pass's times at the reference host speed (the raw ones
    kept as raw_*)."""
    for k in ("setup_s", "campaign_s", "wall_s"):
        p["raw_" + k] = p[k]
    p["setup_s"] = host.at_ref_speed(p["raw_setup_s"], p["t0"], p["t1"])
    p["campaign_s"] = host.at_ref_speed(p["raw_campaign_s"], p["t1"], p["t2"])
    p["wall_s"] = p["setup_s"] + p["campaign_s"]


def inprocess(workload, seed, seconds, seeds):
    with HostSpeed() as host:
        passes = until_spent(seconds, lambda: bench_pass(workload, seeds))
        extra = [run_json([BENCH, "setup", "--workload", workload, "--seeds",
                           seeds])
                 for _ in range(MIN_SETUPS - len(passes))]
    for p in passes:
        scale_pass(host, p)
    setups = ([p["setup_s"] for p in passes]
              + [host.at_ref_speed(s["setup_s"], s["t0"], s["t1"])
                 for s in extra])

    problems = []
    attempted = sum(p["cases"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if len({p["digest"] for p in passes}) != 1:
        problems.append("report digests differ between passes")
        failed += sum(p["cases"] for p in passes[1:])
    oracle = run_json([BENCH, "oracle", "--workload", workload, "--seeds",
                       seeds, "--sample-seed", str(seed)])
    if oracle["mismatches"]:
        problems.append("oracle disagrees on %s cases %s"
                        % (oracle["campaign"], oracle["mismatches"]))
        failed += len(oracle["mismatches"])
    if workload == "workers1":
        # one campaign per run, chosen by --seed, against the in-process
        # path; the traced run compares all of them
        labels = sorted(passes[0]["digests"])
        label = labels[seed % len(labels)]
        inproc = run_json([BENCH, "pass", "--workload", "comfort102",
                           "--seeds", label.split("-")[-1]])
        if inproc["digests"][label] != passes[0]["digests"][label]:
            problems.append("workers1 report differs from in-process on "
                            + label)
            failed += inproc["cases"]

    metrics = {
        "setup_s": median(setups),
        "wall_s": median([p["wall_s"] for p in passes]),
        "cases_per_s": median([p["cases"] / p["campaign_s"] for p in passes]),
        "unique_bugs": median([p["unique_bugs"] for p in passes]),
        "peak_heap_mb": median([p["peak_heap_mb"] for p in passes]),
    }
    detail = {"pass_walls": [p["wall_s"] for p in passes],
              "raw_pass_walls": [p["raw_wall_s"] for p in passes],
              "setups": setups, "oracle": oracle, "digest": passes[0]["digest"]}
    return metrics, attempted, failed, problems, detail


# ---------- cli-cold: fresh `comfort fuzz` processes ----------

DISC_RE = re.compile(r"^\s*\[case\s+(\d+)\]\s+(\S+)\s+\S+\s+(\S+)\s*$")


def cli_process(budget, seed):
    """One `comfort fuzz` process, timed from spawn to exit."""
    env = child_env()
    env["OCAMLRUNPARAM"] = "v=0x400"  # GC totals on stderr at exit
    t0, p0 = time.time(), time.perf_counter()
    p = run([CLI, "fuzz", "--budget", str(budget), "--seed", str(seed)], env)
    wall, t1 = time.perf_counter() - p0, time.time()
    if p.returncode != 0:
        raise BenchError("comfort fuzz --seed %d exited %d: %s"
                         % (seed, p.returncode, p.stderr.strip()[-400:]))
    m = re.search(r"top_heap_words:\s*(\d+)", p.stderr)
    heap = int(m.group(1)) * 8 / 1048576.0 if m else 0.0
    cases = int(re.search(r"^cases: (\d+)", p.stdout, re.M).group(1))
    bugs = int(re.search(r"^unique bugs: (\d+)", p.stdout, re.M).group(1))
    discs = ["%s %s %s" % m.groups() for m in
             (DISC_RE.match(l) for l in p.stdout.splitlines()) if m]
    return {"wall": wall, "t0": t0, "t1": t1, "heap": heap, "cases": cases,
            "bugs": bugs, "discoveries": discs, "stdout": p.stdout}


def cli_seed_list(seeds):
    return run_json([BENCH, "seeds", "--workload", "cli-cold", "--seeds",
                     seeds])


def cli_processes(budget, seed_list):
    return [cli_process(budget, s) for s in seed_list]


def scale_cli(host, results):
    """Each result's wall at the reference host speed, as its "norm"."""
    for r in results:
        r["norm"] = host.at_ref_speed(r["wall"], r["t0"], r["t1"])


def cli_cold(_workload, seed, seconds, seeds):
    seed_list = cli_seed_list(seeds)
    with HostSpeed() as host:
        passes = until_spent(
            seconds,
            lambda: dict(zip(seed_list, cli_processes(CLI_BUDGET, seed_list))))
        # set-up: `comfort fuzz --budget 0`
        setup_runs = cli_processes(0, [seed_list[i % len(seed_list)]
                                       for i in range(MIN_SETUPS)])
    for p in passes:
        scale_cli(host, p.values())
    scale_cli(host, setup_runs)
    setups = [r["norm"] for r in setup_runs]

    problems = []
    attempted = sum(r["cases"] for p in passes for r in p.values())
    failed = sum(CLI_BUDGET - r["cases"] for p in passes for r in p.values())
    for s in seed_list:
        if len({p[s]["stdout"] for p in passes}) != 1:
            problems.append("comfort fuzz --seed %d output differs between "
                            "passes" % s)
            failed += CLI_BUDGET
    expected = run_json([BENCH, "expect-cli", "--seeds", seeds])
    for e in expected:
        got = passes[0][e["seed"]]
        if got["bugs"] != e["unique_bugs"] or got["discoveries"] != e["discoveries"]:
            problems.append("comfort fuzz --seed %d disagrees with the library"
                            % e["seed"])
            failed += CLI_BUDGET
    oracle = run_json([BENCH, "oracle", "--workload", "cli-cold", "--seeds",
                       seeds, "--sample-seed", str(seed)])
    if oracle["mismatches"]:
        problems.append("oracle disagrees on %s cases %s"
                        % (oracle["campaign"], oracle["mismatches"]))
        failed += len(oracle["mismatches"])

    walls = [sum(r["norm"] for r in p.values()) for p in passes]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        # per second of process wall: a user of the binary pays set-up on
        # every invocation, so here it is part of the rate
        "cases_per_s": median([sum(r["cases"] for r in p.values()) / w
                               for p, w in zip(passes, walls)]),
        "unique_bugs": median([sum(r["bugs"] for r in p.values())
                               for p in passes]),
        "peak_heap_mb": median([max(r["heap"] for r in p.values())
                                for p in passes]),
    }
    detail = {"pass_walls": walls,
              "raw_pass_walls": [sum(r["wall"] for r in p.values())
                                 for p in passes],
              "setups": setups, "oracle": oracle}
    return metrics, attempted, failed, problems, detail


# ---------- the traced run ----------

def traced(workload, seeds):
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s.tsv" % workload)
    t = run_json([BENCH, "trace", "--workload", workload, "--seeds", seeds,
                  "--spans-out", spans])
    m = t["metrics"]
    # One untraced pass with its raw times and the host scale, so that the
    # scaled end-to-end times can be read against the wall clock.
    if workload == "cli-cold":
        seed_list = cli_seed_list(seeds)
        with HostSpeed() as host:
            rs = cli_processes(CLI_BUDGET, seed_list)
            ss = cli_processes(0, seed_list[:3])
        scale_cli(host, rs)
        wall = sum(r["wall"] for r in rs)
        scaled = sum(r["norm"] for r in rs)
        setup = median([r["wall"] for r in ss])
    else:
        with HostSpeed() as host:
            p = bench_pass(workload, seeds)
        scale_pass(host, p)
        wall, scaled, setup = p["raw_wall_s"], p["wall_s"], p["raw_setup_s"]
    m["raw.wall_s"], m["raw.setup_s"] = wall, setup
    m["host.scale"] = scaled / wall
    # raw, like lm.train_s: the share is of the same wall clock
    if workload != "cli-cold":
        setup = m["setup.inproc_s"]
    m["lm.setup_share_pct"] = 100.0 * m["lm.train_s"] / setup
    problems = ["replay: " + u for u in t["unfaithful"]]
    problems += ["traced and profiled reports differ on " + l
                 for l in t["digest_mismatch"]]
    failed = t["failed"] + (t["cases"] if problems else 0)
    missing = [k for k in PER_LAYER if k not in m]
    if missing:
        raise BenchError("traced run did not report " + ", ".join(missing))
    metrics = {k: m[k] for k in PER_LAYER}
    detail = {k: m[k] for k in ("trace.spans", "trace.replay_ms",
                                "campaign.untraced_ms")}
    detail["spans"] = spans
    return metrics, t["cases"], failed, problems, detail


def measure(workload, seed, seconds, trace, seeds):
    if trace:
        metrics, attempted, failed, problems, detail = traced(workload, seeds)
        units = PER_LAYER
    else:
        fn = cli_cold if workload == "cli-cold" else inprocess
        metrics, attempted, failed, problems, detail = fn(workload, seed,
                                                          seconds, seeds)
        metrics["ok_frac"] = (attempted - failed) / attempted
        units = END_TO_END
    for p in problems:
        sys.stderr.write("CHECK FAILED (%s): %s\n" % (workload, p))
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seeds", default="rule",
                    help='the workload seed list: "rule" (default), '
                         '"heldout", or e.g. "1-4,9"')
    args = ap.parse_args(argv)

    def terminated(*_):
        # unwinds through subprocess.run, which kills and reaps the child
        raise BenchError("terminated")

    signal.signal(signal.SIGTERM, terminated)
    global deadline
    try:
        build()
        pin_to_one_cpu()
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {}
        for w in names:
            deadline = time.monotonic() + RUN_LIMIT  # per workload
            results[w], detail = measure(w, args.seed, args.seconds,
                                         args.trace == 1, args.seeds)
            sys.stderr.write("%s: %s\n" % (w, json.dumps(detail)))
    except BenchError as e:
        sys.stderr.write("benchmark failed: %s\n" % e)
        return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for w, r in results.items():
        print("%s  (correct: %s, %d attempted, %d failed)"
              % (w, r["correct"], r["attempted"], r["failed"]))
        for k, v in r["metrics"].items():
            print("  %-32s %14.4f %s" % (k, v["value"], v["unit"]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, k): v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
