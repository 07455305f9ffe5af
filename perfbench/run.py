#!/usr/bin/env python3
"""perfbench: build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload compile|simulate|serve \
        --seed N --seconds S --trace 0|1 [--domains D]

Run from the root of a checkout.  The benchmark is built with dune into
the checkout's _build directory; the run prints a host/placement record
line, then as its last line one JSON object with the keys correct,
attempted, failed and metrics.  Traced runs also write a Chrome
trace-event file under perfbench/_out/.  Exits non-zero, without a
result line, when the build or the run fails or a result is malformed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join("perfbench", "_out")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_bounded(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it.  Returns (returncode, stdout)."""
    proc = subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.PIPE if capture else sys.stderr,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124, ""
    return proc.returncode, out or ""


def build():
    if not os.path.isfile("dune-project"):
        print("perfbench: no dune-project here; run from a checkout root", file=sys.stderr)
        return False
    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run_bounded(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/bench.exe"],
        BUILD_TIMEOUT_S,
        env=env,
    )
    return code == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(res, trace):
    """The result line's shape, against BENCHMARK.json."""
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed"
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        return "metric names: missing %s, extra %s" % (
            sorted(set(want) - set(got)),
            sorted(set(got) - set(want)),
        )
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)):
            return "metric " + name
    return None


def run(workload, seed, seconds, trace, domains=2):
    """Build, run one workload, return (info, result) or None."""
    if not build():
        return None
    os.makedirs(OUT, exist_ok=True)
    cmd = [
        EXE,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--domains", str(domains),
    ]
    env = dict(os.environ)
    if trace:
        cmd += ["--chrome", os.path.join(OUT, f"trace-{workload}.json")]
        # the runtime's event ring file, removed when the run exits
        env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, env=env, capture=True)
    lines = out.strip().splitlines()
    if code != 0 or len(lines) < 2:
        print(f"perfbench: run failed (exit {code})", file=sys.stderr)
        return None
    try:
        info, res = json.loads(lines[-2]), json.loads(lines[-1])
    except ValueError as e:
        print(f"perfbench: result is not JSON: {e}", file=sys.stderr)
        return None
    err = check_result(res, trace)
    if err:
        print("perfbench: malformed result: " + err, file=sys.stderr)
        return None
    return info, res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["compile", "simulate", "serve"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--domains", type=int, default=2)
    a = ap.parse_args()
    os.chdir(ROOT)
    got = run(a.workload, a.seed, a.seconds, a.trace == 1, a.domains)
    if got is None:
        sys.exit(1)
    info, res = got
    print(json.dumps(info))
    print(json.dumps(res))


if __name__ == "__main__":
    main()
