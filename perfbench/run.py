#!/usr/bin/env python3
"""The repository's benchmark: builds liblfp, lfp_serve and the lfpbench
driver from source, runs one workload, and prints the result.

    python3 perfbench/run.py --workload census-spill --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]   # every workload, untraced
    python3 perfbench/run.py --selftest                        # traced == untraced digests

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and scratch files to .bench_work, both relative to
the checkout root. The last line of a single-workload run is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["census-spill", "path-census", "serve-mixed"]
RUN_TIMEOUT_S = 170
# A run during which the hypervisor took more than this share of the host's
# CPU reads slow on every timing: its result is marked not comparable.
STEAL_LIMIT = 0.05


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def clean_env():
    """The caller's environment minus LFP_* knobs, which would change what
    the library measures."""
    return {k: v for k, v in os.environ.items() if not k.startswith("LFP_")}


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "lfpbench"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, env=clean_env(), stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    driver = os.path.join(out, "lfpbench")
    serve = os.path.join(out, "lfp", "tools", "lfp_serve")
    for binary in (driver, serve):
        if not os.access(binary, os.X_OK):
            sys.exit("run.py: build produced no " + binary)
    return driver, serve


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def host_fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": cmake_cache("CMAKE_CXX_COMPILER_ID") + " " +
                    cmake_cache("CMAKE_CXX_COMPILER_VERSION"),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "commit": source_id(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        config = json.load(spec)
    return {m["name"]: m["unit"] for m in config["per_layer" if trace else "end_to_end"]}


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat (user .. steal), or None."""
    try:
        with open("/proc/stat") as stat:
            return [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def run_workload(driver, serve, workload, seed, seconds, trace):
    """Runs the driver once; returns (exit code, stdout lines, result). The
    lines end with the host's busy and stolen CPU shares during the run and
    whether the result is comparable: a run on a host whose other tenants
    took more than STEAL_LIMIT of the CPU reads slow, and is marked so."""
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    command = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--work-dir", os.path.relpath(work, ROOT),
               "--serve-bin", serve]
    before = cpu_times()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    after = cpu_times()
    lines = proc.stdout.splitlines()
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        total = max(1, sum(delta))
        steal = delta[7] / total
        load = "host cpu during run: busy %.1f%%, steal %.1f%%" % (
            100.0 * (total - delta[3] - delta[4]) / total, 100.0 * steal)
        comparable = "comparable: yes" if steal <= STEAL_LIMIT else (
            "comparable: no, steal above %.0f%%; do not compare this run's timings" %
            (100.0 * STEAL_LIMIT))
        lines[max(0, len(lines) - 1):max(0, len(lines) - 1)] = [load, comparable]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def check_result(result, trace):
    """The result must carry exactly the metrics BENCHMARK.json lists. A
    traced run reports 0 for a layer metric its workload does not exercise
    (README: per-layer metrics); the driver leaves those out."""
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the last line is not a result object"
    expected = expected_metrics(trace)
    if trace:
        for name, unit in expected.items():
            result["metrics"].setdefault(name, {"value": 0, "unit": unit})
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return "metric set differs from BENCHMARK.json: missing %s, unexpected %s, units %s" % (
            missing, extra, sorted(n for n in got if n in expected and got[n] != expected[n]))
    return None


def single(args):
    driver, serve = build()
    print("host: " + json.dumps(host_fingerprint()), flush=True)
    code, lines, result = run_workload(driver, serve, args.workload, args.seed, args.seconds,
                                       args.trace)
    problem = check_result(result, args.trace) if result is not None else "no result line"
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if problem is not None:
        sys.exit("run.py: %s: %s (exit %d)" % (args.workload, problem, code))
    print(json.dumps(result), flush=True)
    sys.exit(code)


def all_workloads(args):
    driver, serve = build()
    print("host: " + json.dumps(host_fingerprint()), flush=True)
    status = 0
    for workload in WORKLOADS:
        code, lines, result = run_workload(driver, serve, workload, args.seed, args.seconds, False)
        problem = check_result(result, False) if result is not None else "no result line"
        print("\n== %s (seed %d): exit %d, %s" % (
            workload, args.seed, code, problem or "attempted %d, failed %d" % (
                result["attempted"], result["failed"])))
        for line in lines:
            if line.startswith(("host cpu during run", "comparable:")):
                print("  " + line)
        if result is not None and problem is None:
            for name, metric in result["metrics"].items():
                print("  %-22s %16.6g %s" % (name, metric["value"], metric["unit"]))
        if code != 0 or problem is not None:
            status = 1
    sys.exit(status)


def selftest(args):
    """Traced and untraced runs of both census workloads must produce the
    same record digests."""
    driver, serve = build()
    status = 0
    for workload in ("census-spill", "path-census"):
        digests = []
        for trace in (False, True):
            code, lines, _ = run_workload(driver, serve, workload, args.seed, 1, trace)
            found = [m.group(1) for line in lines
                     for m in [re.search(r"digest ([0-9a-f]{16})", line)] if m]
            if code != 0 or not found:
                print("selftest %s trace=%d: exit %d, no digest" % (workload, trace, code))
                status = 1
            digests.append(found[-1] if found else None)
        same = digests[0] is not None and digests[0] == digests[1]
        print("selftest %s: untraced %s, traced %s: %s" % (
            workload, digests[0], digests[1], "PASS" if same else "FAIL"))
        status |= 0 if same else 1
    sys.exit(status)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--selftest", action="store_true",
                        help="check traced and untraced census digests agree")
    args = parser.parse_args()
    if args.selftest:
        selftest(args)
    elif args.all:
        all_workloads(args)
    elif args.workload:
        single(args)
    else:
        parser.error("give --workload, --all or --selftest")


if __name__ == "__main__":
    main()
