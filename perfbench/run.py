#!/usr/bin/env python3
"""Build and run the verdict benchmark for one workload.

    python3 perfbench/run.py --workload ref-fig1 --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/cmake;
later runs only let the build tool confirm it is up to date. Results land in
.bench_build/results.

Before it trusts the program's numbers the script checks the benchmark
itself: the workloads in BENCHMARK.json are exactly the ones the program
runs, every metric BENCHMARK.json names is one the program emits with the
same unit, and every emitted name matches [A-Za-z0-9_.-]+ and carries a
unit. The last line on stdout is one JSON object with exactly the keys
correct, attempted, failed and metrics; the metrics are BENCHMARK.json's
end_to_end list with --trace 0 and its per_layer list with --trace 1. The
exit code is 0 only when every operation matched the pinned answers.
"""
import argparse
import json
import os
import re
import subprocess
import sys
import time

BUILD_DIR = os.path.join(".bench_build", "cmake")
RESULTS_DIR = os.path.join(".bench_build", "results")
TMP_DIR = os.path.join(".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "verdict_bench")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_LIMIT_S = 175  # every run must end within 180 s


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # Build output goes to stderr so stdout ends with the result line.
    os.makedirs(TMP_DIR, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j2"],
                   check=True, stdout=sys.stderr)


def query(flag):
    out = subprocess.run([BINARY, flag], check=True, capture_output=True,
                         text=True, timeout=30).stdout
    return [line.split() for line in out.splitlines() if line.strip()]


def self_check(bench, workload, trace):
    """The benchmark's contract with the program it drives."""
    declared = [w["name"] for w in bench["workloads"]]
    runs = [row[0] for row in query("--list")]
    if sorted(declared) != sorted(runs):
        fail("BENCHMARK.json workloads %s != program workloads %s"
             % (declared, runs))
    if workload not in declared:
        fail("unknown workload " + workload)
    emitted = {}
    for row in query("--list-metrics"):
        if len(row) != 3 or not NAME_RE.match(row[0]) or not row[1]:
            fail("malformed metric declaration %r" % (row,))
        emitted[row[0]] = (row[1], row[2])
    for section, kind in (("end_to_end", "e2e"), ("per_layer", "layer")):
        for m in bench[section]:
            got = emitted.get(m["name"])
            if got != (m["unit"], kind):
                fail("%s metric %s (%s) is not emitted as such: %r"
                     % (section, m["name"], m["unit"], got))
    return bench["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Compiler and program temporaries stay inside the checkout.
    os.environ["TMPDIR"] = os.path.abspath(TMP_DIR)

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    wanted = self_check(bench, args.workload, args.trace == 1)

    started = time.monotonic()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", RESULTS_DIR]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s"
             % (args.workload, RUN_LIMIT_S))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("program printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not a result: %r (exit %d)"
             % (lines[-1], proc.returncode))
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    for name, m in metrics.items():
        if not NAME_RE.match(name) or not m.get("unit"):
            fail("emitted metric %r has a bad name or no unit" % name)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("program did not emit %s" % missing)

    print("workload %s  seed %d  trace %d  host %s"
          % (args.workload, args.seed, args.trace, json.dumps(result["host"])))
    for name, m in metrics.items():
        print("  %-38s %-16.6g %s" % (name, m["value"], m["unit"]))
    print("  attempted %d  failed %d  (%.1f s)"
          % (result["attempted"], result["failed"],
             time.monotonic() - started))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "trace" if args.trace else "e2e"
    path = os.path.join(RESULTS_DIR, "%s-seed%d-%s-result.json"
                        % (args.workload, args.seed, tag))
    with open(path, "w") as f:
        json.dump(result, f, indent=1)

    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))
    sys.exit(0 if proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
