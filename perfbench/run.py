#!/usr/bin/env python3
"""Repository benchmark: builds the runner, runs one workload, prints metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-test

The runner binary is built from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the lines before it repeat the metrics for people, and give the output
digest and the host fingerprint.  perfbench/README.md documents the
workloads and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
DEFAULT_SEED = 20250707  # perfbench::kDefaultSeed; pinned outputs use it
RUNNER_TIMEOUT_S = 170
WORKLOADS = ("paper_sweep", "tmin_saturated", "bmin_vc_deep")

# Per-layer metrics that must repeat exactly for a fixed seed.  The sweep
# pool's computed and speculated point counts depend on thread timing, so
# they are left out.
EXACT_LAYER_METRICS = (
    "topology.lanes", "routing.candidate_calls", "routing.grants",
    "routing.denials", "routing.grant_ratio", "traffic.calls",
    "traffic.messages_created", "traffic.messages_delivered",
    "sim.flit_moves", "sim.blocked_cycles", "sim.credit_starved_cycles",
    "sim.packet_states", "sim.accepted_fraction", "sim.latency_us_mean",
    "experiment.points_kept",
)


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_runner():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "sim" / "engine.cpp").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}", 2)
    out = build_dir() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(step), 3)
    return out / "perfbench_runner"


def read_text(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = read_text(f"{index}/level")
        kind = read_text(f"{index}/type")
        size = read_text(f"{index}/size")
        if level and kind and size and kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def cpu_model():
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def cmake_cache(build):
    values = {}
    for line in (read_text(build / "CMakeCache.txt") or "").splitlines():
        if ":" in line and "=" in line and not line.startswith(("#", "//")):
            key, value = line.split("=", 1)
            values[key.split(":", 1)[0]] = value
    return values


def source_digest():
    """sha256 of the simulator and benchmark sources (a revision stand-in
    when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def host_fingerprint(runner):
    cache = cmake_cache(runner.parent)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = " ".join(filter(None, (
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""))))
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "build_type": build_type,
        "cxx_flags": flags,
        "compiler": version[0] if version else compiler,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }


def reference_for(workload, size):
    data = json.loads((BENCH_DIR / "reference.json").read_text())
    return data.get(workload, {}).get(size, {})


def run_workload(runner, workload, seed, seconds, trace, size, spans=None):
    """Runs one workload in the runner and returns its JSON report."""
    cmd = [str(runner), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}",
           f"--results-dir={ROOT / 'results'}"]
    if size == "tiny":
        cmd.append("--tiny")
    if spans:
        cmd.append(f"--spans={spans}")
    if seed == DEFAULT_SEED:
        reference = reference_for(workload, size)
        if "digest" in reference:
            cmd.append(f"--expect-digest={reference['digest']}")
        if trace and "flit_moves" in reference:
            cmd.append(f"--expect-moves={reference['flit_moves']}")
    # The simulator reads WORMSIM_* knobs from the environment; none may
    # leak into a benchmark run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("WORMSIM_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUNNER_TIMEOUT_S} s", 5)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"runner exited with {proc.returncode} on {workload}", 4)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def metrics_problems(report, trace):
    """Names or units that differ from what BENCHMARK.json declares."""
    problems = []
    for metric in declared_metrics(trace):
        got = report["metrics"].get(metric["name"])
        if got is None:
            problems.append(f"missing metric {metric['name']}")
        elif got["unit"] != metric["unit"]:
            problems.append(f"{metric['name']} has unit {got['unit']}, "
                            f"declared {metric['unit']}")
    return problems


def run_once(args):
    runner = build_runner()
    results = build_dir() / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}"
    spans = results / f"{stem}.spans.json" if args.trace else None
    load_before = os.getloadavg()
    report = run_workload(runner, args.workload, args.seed, args.seconds,
                        args.trace, args.size, spans)
    host = host_fingerprint(runner)
    host["loadavg_before"] = load_before
    host["loadavg_after"] = os.getloadavg()
    problems = metrics_problems(report, args.trace)
    if problems:
        fail("; ".join(problems), 6)
    names = [m["name"] for m in declared_metrics(args.trace)]
    result = {
        "correct": report["failed"] == 0 and report["attempted"] >= 1,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: report["metrics"][name] for name in names},
    }
    record = {"workload": args.workload, "seed": args.seed,
              "size": args.size, "trace": int(args.trace),
              "seconds": args.seconds, "host": host, "runner": report,
              "result": result}
    suffix = "trace" if args.trace else "e2e"
    (results / f"{stem}-{suffix}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {int(args.trace)}")
    for name in names:
        metric = report["metrics"][name]
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  checks: {report['attempted']} attempted, {report['failed']} "
          f"failed (failed_fraction "
          f"{report['failed'] / max(1, report['attempted']):.6g})")
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")
    reference = "compared with reference" if args.seed == DEFAULT_SEED else \
        "not compared (non-default seed)"
    print(f"  output digest {report['digest']} ({reference})")
    if spans:
        print(f"  spans written to {spans.relative_to(ROOT)}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(json.dumps(result))


def self_test():
    """Tiny run of every workload: every declared metric is emitted with
    its unit, outputs check out, two traced runs agree on every count, and
    the profiler covers at least 95% of the run loop."""
    runner = build_runner()
    problems = []
    for workload in WORKLOADS:
        start = time.monotonic()
        plain = run_workload(runner, workload, DEFAULT_SEED, 1, False, "tiny")
        traced = [run_workload(runner, workload, DEFAULT_SEED, 1, True, "tiny")
                  for _ in range(2)]
        mine = metrics_problems(plain, False) + metrics_problems(traced[0], True)
        for report in [plain] + traced:
            mine += [f"check failed: {f}" for f in report["failures"]]
        for report in traced:
            coverage = report["metrics"]["telemetry.profile_coverage"]["value"]
            if coverage < 0.95:
                mine.append(f"profile coverage {coverage:.3f} < 0.95")
        for name in EXACT_LAYER_METRICS:
            first, second = (t["metrics"][name]["value"] for t in traced)
            if first != second:
                mine.append(f"{name} differs between traced runs: "
                            f"{first} vs {second}")
        status = "ok" if not mine else "FAILED"
        print(f"self-test {workload}: {status} "
              f"({time.monotonic() - start:.1f} s, digest {plain['digest']})")
        problems += [f"{workload}: {p}" for p in mine]
    for problem in problems:
        print("  " + problem)
    sys.exit(1 if problems else 0)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-test", action="store_true",
                        help="tiny run of every workload; checks the output "
                             "contract and count repeatability")
    args = parser.parse_args()
    if args.self_test:
        self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        run_once(args)


if __name__ == "__main__":
    main()
