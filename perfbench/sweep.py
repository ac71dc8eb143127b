#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py                      # every workload, seeds 0-9
    python3 perfbench/sweep.py --quick              # the benchmark's own test
    python3 perfbench/sweep.py --out perfbench/BASELINE.json --traced

Runs are sequential, one process at a time.  For every workload and
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  ``--traced``
adds one ``--trace 1`` run per workload and prints its per-layer table.
``--out`` appends the summary to the ``sweeps`` list of a JSON file.  The
exit code is non-zero when any run fails or prints a malformed result.

``--quick`` runs each workload once on its reduced input for one second,
with and without tracing, checks each result line, and checks that the
benchmark refuses to run in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(root: str, spec: dict, workload: str, seed: int, trace: int,
             quick: bool) -> tuple[int, dict | None, float]:
    seconds = 1 if quick else spec["run_seconds"]
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result, elapsed


def result_errors(result: dict | None) -> list[str]:
    if result is None:
        return ["no JSON result on the last line"]
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    return errors


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / med if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def bare_dir_refuses(spec: dict) -> list[str]:
    """The benchmark must fail, printing no result, without the source tree."""
    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, _ = run_once(bare, spec, spec["workloads"][0]["name"], 0, 0, quick=True)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result is not None:
        return [f"bare directory: exit {rc}, result {result}"]
    return []


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    p.add_argument("--quick", action="store_true", help="self-test on reduced inputs")
    p.add_argument("--out", help="append the summary to the sweeps list of this JSON file")
    args = p.parse_args(argv)

    errors: list[str] = []
    seeds = [0] if args.quick else list(range(10))
    summary: dict = {"date": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime()),
                     "run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        run_s = 0.0
        for seed in seeds:
            rc, result, elapsed = run_once(ROOT, spec, workload, seed, 0, args.quick)
            run_s += elapsed
            errs = result_errors(result) + ([f"exit {rc}"] if rc else [])
            errors += [f"{workload} seed {seed}: {e}" for e in errs]
            if result is None:
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + ", ".join(
                f"{n}={m['value']:.4g}{m['unit']}" for n, m in result["metrics"].items()),
                flush=True)
        entry = {"end_to_end": {n: summarise(v) for n, v in values.items()},
                 "run_s_mean": run_s / len(seeds)}
        for name, s in entry["end_to_end"].items():
            unit = next(m["unit"] for m in spec["end_to_end"] if m["name"] == name)
            print(f"  {workload:15s} {name:12s} median {s['median']:.5g} {unit:3s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}, n={s['n']})", flush=True)
        if args.traced or args.quick:
            rc, result, elapsed = run_once(ROOT, spec, workload, seeds[0], 1, args.quick)
            entry["traced_run_s"] = elapsed
            errs = result_errors(result) + ([f"exit {rc}"] if rc else [])
            errors += [f"{workload} traced: {e}" for e in errs]
            if result is not None:
                entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
                for name, m in result["metrics"].items():
                    print(f"  {workload:15s} {name:24s} {m['value']:.6g} {m['unit']}")
        summary["workloads"][workload] = entry
    if args.quick:
        errors += bare_dir_refuses(spec)
    if args.out:
        history = {"sweeps": []}
        if os.path.isfile(args.out):
            with open(args.out) as fh:
                history = json.load(fh)
        history["sweeps"].append(summary)
        with open(args.out, "w") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    for e in errors:
        print(f"ERROR {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
