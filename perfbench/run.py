#!/usr/bin/env python3
"""Repository benchmark for sfikit.

Builds the benchmark program in perfbench/ (CMake, RelWithDebInfo, against ../src)
and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: faas-light and faas-heavy (and cold-churn and sandbox-compute,
which BENCHMARK.json does not list; see perfbench/NOTES.md). The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end_to_end
metrics of BENCHMARK.json, with --trace 1 the per_layer metrics. The
exit code is 0 only when the build worked, every output check passed
and the printed metrics match BENCHMARK.json.

    python3 perfbench/run.py --self-test

runs the program's self-tests and checks its metric catalogue against
BENCHMARK.json one to one. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the repository root; traced runs write their spans
there too.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group and waits for it.

    Returns (returncode, captured stdout or None); on a timeout the whole
    group is killed and the return code is None.
    """
    env = dict(os.environ)
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # compilers' temporary files stay in the checkout
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {cmd[0]} timed out", file=sys.stderr)
        return None, None


def build():
    """Configures and builds the program; returns its path or None."""
    bdir = build_dir()
    for cmd, timeout in (
            (["cmake", "-S", str(HERE), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300),
            (["cmake", "--build", str(bdir), "--target", "perfbench",
              "-j", "4"], 840)):
        try:
            code, _ = run_group(cmd, timeout, sys.stderr)
        except OSError as e:
            print(f"perfbench: {cmd[0]}: {e}", file=sys.stderr)
            return None
        if code != 0:
            return None
    return bdir / "perfbench"


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def check_result(line, trace, bench):
    """Problems with the program's result line, as a list of strings."""
    try:
        res = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    problems = []
    if not isinstance(res, dict) or set(res) != {"correct", "attempted",
                                                 "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    want = {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing[:5]}, extra {extra[:5]}")
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def self_test(exe, expected):
    bench = load_benchmark()
    ok = True
    listing = subprocess.run([str(exe), "--list-metrics"], capture_output=True,
                             text=True, timeout=60).stdout.split("\n")
    catalogue = {}
    for row in filter(None, listing):
        kind, name, unit, better = row.split()
        catalogue.setdefault(kind, []).append(
            {"name": name, "unit": unit, "better": better})
    for kind in ("end_to_end", "per_layer"):
        mine = {m["name"]: (m["unit"], m["better"])
                for m in catalogue.get(kind, [])}
        theirs = {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}
        same = mine == theirs
        ok &= same
        print(f"{'PASS' if same else 'FAIL'} {kind} metrics match "
              f"BENCHMARK.json one to one ({len(mine)} program, "
              f"{len(theirs)} file)")
        if not same:
            print(f"  only in program: {sorted(set(mine) - set(theirs))}")
            print(f"  only in file: {sorted(set(theirs) - set(mine))}")
            print(f"  unit/direction differs: "
                  f"{sorted(k for k in set(mine) & set(theirs) if mine[k] != theirs[k])}")
    names = [w["name"] for w in bench["workloads"]]
    same = names == ["faas-light", "faas-heavy"]
    ok &= same
    print(f"{'PASS' if same else 'FAIL'} workloads: {names}")
    sys.stdout.flush()
    code, _ = run_group([str(exe), "--self-test", "--expected", str(expected)],
                        RUN_TIMEOUT_S, sys.stdout)
    ok &= code == 0
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    expected = HERE / "expected.txt"
    if args.self_test:
        return self_test(exe, expected)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--expected", str(expected)]
    if args.trace:
        cmd += ["--trace-out", str(build_dir() /
                                   f"spans-{args.workload}-{args.seed}.tsv")]
    code, out = run_group(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code is None:
        return 3
    lines = out.rstrip("\n").split("\n")
    problems = check_result(lines[-1], args.trace, load_benchmark())
    if problems:
        print("\n".join(lines[:-1]))
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        return 4
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
