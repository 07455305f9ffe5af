#!/usr/bin/env python3
"""Self-check of the benchmark: short runs of every workload.

    python3 perfbench/selfcheck.py [--seconds S]

For each workload it checks that
  1. every end-to-end and per-layer metric prints with the name and unit
     BENCHMARK.json gives it, and the run's outputs are correct;
  2. the count metrics repeat exactly across two single-domain runs with
     one seed (allocation in kilowords, statement instances, packets,
     bytes, recovery counters, simulated times, cache counters);
  3. in the traced run, the layer spans account for the workers' time,
     as the runner measured it outside every span, within 5%
     (trace.coverage >= 0.95).
Prints one line per check and exits non-zero if any fails.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as perfbench  # noqa: E402

WORKLOADS = ["compile", "simulate", "serve"]
EXACT_UNITS = {"count", "B", "kw", "sim_ms"}
# Counters that depend on timing even on one domain.
INEXACT_PREFIXES = ("gc.", "host.", "trace.", "pool.")


def exact_metrics(metrics):
    return {
        name: m["value"]
        for name, m in metrics.items()
        if (m["unit"] in EXACT_UNITS or name.startswith("memo."))
        and not name.startswith(INEXACT_PREFIXES)
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=7)
    a = ap.parse_args()
    os.chdir(perfbench.ROOT)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in WORKLOADS:
        runs = {}
        for trace in (False, True):
            for k in (0, 1):
                got = perfbench.run(w, a.seed, a.seconds, trace, domains=1)
                check(got is not None, f"{w} trace={int(trace)} run {k}: names, units, result shape")
                if got is None:
                    break
                info, res = got
                check(res["correct"] and res["failed"] == 0, f"{w} trace={int(trace)} run {k}: correct")
                runs[(trace, k)] = res["metrics"]
        if len(runs) < 4:
            continue
        for trace in (False, True):
            a0, a1 = exact_metrics(runs[(trace, 0)]), exact_metrics(runs[(trace, 1)])
            diff = sorted(n for n in a0 if a0[n] != a1[n])
            check(not diff, f"{w} trace={int(trace)}: {len(a0)} count metrics repeat exactly"
                  + (f" (differ: {', '.join(diff)})" if diff else ""))
        cov = runs[(True, 0)]["trace.coverage"]["value"]
        check(cov >= 0.95, f"{w}: layer spans cover {cov:.4f} of the workers' time")
        print(f"     {w}: tracing overhead {runs[(True, 0)]['trace.overhead_pct']['value']:.2f}%")
    if failures:
        print(f"{len(failures)} check(s) failed", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
