"""Command-line front door: generate, validate, solve, simulate, audit,
loss, export, bench.

Exit codes: 0 ok, 1 infeasible, 2 error.  ``solve`` writes the plan, the
simulated trace (JSON + CSV), the audit report and a result row; ``bench``
runs a config matrix (optionally across processes) and emits per-method
time-completion and loss-distribution profiles.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
import time

from . import __version__
from .builders import (CenterOptions, build_center, build_exact_mix,
                       build_exact_split, build_mccormick, make_plans)
from .instance import (COUNT, STRING, Instance, InstanceError, RandomizationParams, Shape,
                       array, extend_periodic, keyed, optional, parse_instance,
                       randomize_supply, read_instance, record, validate_instance,
                       write_instance)
from .rolling import (RollingError, RollParams, check_step_starts, fixed_periods,
                      roll_full, roll_partial, run_based_periods)
from .simulate import (PlanInconsistencyError, audit, loss, read_plan,
                       simulate, write_plan)
from .solve import (SolveOptions, SolverError, extract_flow_plan, highs_core,
                    solve)

RESULTS_VERSION = 3
RESULT_FIELDS = [
    "record_version", "instance", "method", "scheme", "horizon", "eps_hat",
    "status", "objective", "bound", "pct_loss", "violations",
    "worst_spec_violation", "steps", "start", "nodes", "wall_time_s", "message",
]
# "ok" is no solve status: perfbench's traced rolling record writes it, and
# its check reads this set
OK_STATUSES = {"ok", "optimal", "gap_reached", "time_limit"}
# Step statuses of a rolling run, best first; the run reports its worst.
_STEP_STATUS_ORDER = ("optimal", "gap_reached", "time_limit")


def _parse_eps_hat(value):
    """A number or a per-spec dict from a flag or config value; whether
    each precision is positive is checked where plans are made."""
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        return {q: float(v) for q, v in value.items()}
    if "=" not in value:
        return _eps_number(value, value, "a number")
    eps = {}
    for part in value.split(","):
        q, eq, v = part.partition("=")
        q = q.strip()
        # a part without a spec or an "=" has no number either
        x = _eps_number(v if q and eq else "", part, "'q=v' with v a number")
        if q in eps:
            raise ValueError(f"--eps-hat names spec {q!r} twice")
        eps[q] = x
    return eps


def _eps_number(text: str, part: str, want: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--eps-hat part {part!r} is not {want}") from None


def _builder_for(args):
    build = {"center": build_center, "mccormick": build_mccormick}.get(args.method)
    if build is None:
        raise ValueError(f"method {args.method!r} cannot be solved in-process")
    eps_hat = _parse_eps_hat(args.eps_hat)
    opts = CenterOptions(tighten=not args.no_tighten)
    return lambda inst: build(inst, make_plans(inst, eps_hat), opts)


def _trace_csv(inst: Instance, trace, path) -> None:
    spec_ids = inst.spec_ids()
    tanks = [t.id for t in inst.tanks]
    ratio_pairs = sorted({p for r in inst.runs for p in r.ratio_bounds})
    cols = ["day"]
    for k in tanks:
        cols += [f"v_mid_{k}", f"v_end_{k}"] + [f"f_{k}_{q}" for q in spec_ids]
    cols += ["feed_volume"] + [f"feed_{q}" for q in spec_ids]
    cols += [f"feed_ratio_{q1}_{q2}" for q1, q2 in ratio_pairs]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for t in range(trace.horizon):
            row = [t]
            for k in tanks:
                row += [trace.v_mid[(k, t)], trace.v_end[(k, t)]]
                row += [trace.f[(k, q, t)] for q in spec_ids]
            vol = trace.feed_volume.get(t, 0.0)
            row.append(vol)
            row += [trace.feed_spec.get((q, t), "") for q in spec_ids]
            for q1, q2 in ratio_pairs:
                den = trace.feed_spec.get((q2, t))
                num = trace.feed_spec.get((q1, t))
                row.append(num / den if vol > 0 and den else "")
            w.writerow(row)


def _record(run: dict, **fields) -> dict:
    """A run record: every ``RESULT_FIELDS`` key, in order, the run's
    ``instance``, ``method``, ``scheme`` and ``eps_hat`` from ``run`` and the
    outcome from ``fields``; a field the outcome lacks is None."""
    return {**dict.fromkeys(RESULT_FIELDS), "record_version": RESULTS_VERSION,
            **{k: run.get(k) for k in ("instance", "method", "scheme", "eps_hat")},
            **fields}


def run_solve_config(config: dict) -> dict:
    """Execute one solve pipeline from a plain config dict (bench worker).

    The keys are ``instance``, ``out_dir`` and the ``solve`` flags' dests;
    any other key raises ``ValueError``.
    """
    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown solve config keys {unknown}; known: {sorted(_CONFIG_KEYS)}")
    ns = argparse.Namespace(**{**_SOLVE_DEFAULTS, **config})
    builder = _builder_for(ns)
    opts = SolveOptions(mip_gap=ns.mip_gap, time_limit=ns.time_limit)
    inst = read_instance(config["instance"])
    # every precision must be positive and a per-spec eps_hat must name every
    # spec; a rolling step's sub-instance has the same specs, so one check
    # covers every build
    make_plans(inst, _parse_eps_hat(ns.eps_hat))
    if ns.scheme != "flat":
        periods = (run_based_periods(inst.runs, inst.horizon, ns.dt)
                   if ns.periods == "run" else fixed_periods(inst.horizon, ns.dt))
        params = RollParams(h_nf=ns.h_nf, n_present=ns.n_present, n_step=ns.n_step,
                            solve=opts)
        if ns.scheme == "partial":
            check_step_starts(inst.runs, periods, ns.n_step)
    # the options are all checked above: a rejected one leaves no directory
    out_dir = config["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    # `solve` loads HiGHS on first use; load it before the clock starts, so
    # that `wall_time_s` times the run and not a once-per-process import
    highs_core()
    t0 = time.perf_counter()
    if ns.scheme == "flat":
        model = builder(inst)
        res = solve(model, opts)
        if not res.has_values and res.status != "infeasible":
            raise SolverError(f"solver returned {res.status}: {res.message}")
        plan = extract_flow_plan(model, res) if res.has_values else None
        outcome = {"status": res.status, "objective": res.objective,
                   "bound": res.best_bound, "steps": 0, "start": res.start,
                   "nodes": res.nodes, "message": res.message}
    else:
        log_path = os.path.join(out_dir, "steps.jsonl")
        roller = roll_full if ns.scheme == "full" else roll_partial
        result = roller(inst, periods, params, builder, log_path=log_path)
        plan = result.plan
        # step bounds hold for their own sub-problems, not for the whole
        # horizon; each step's start and nodes are in steps.jsonl
        outcome = {"status": max((s.status for s in result.steps), key=_STEP_STATUS_ORDER.index),
                   "objective": result.objective, "steps": len(result.steps)}
    outcome["wall_time_s"] = round(time.perf_counter() - t0, 4)

    if plan is not None:    # an infeasible solve has none
        write_plan(plan, os.path.join(out_dir, "plan.json"))
        trace = simulate(inst, plan)
        with open(os.path.join(out_dir, "trace.json"), "w") as fh:
            json.dump(trace.to_dict(), fh, indent=2)
        _trace_csv(inst, trace, os.path.join(out_dir, "trace.csv"))
        rep = audit(inst, trace, plan)
        with open(os.path.join(out_dir, "audit.json"), "w") as fh:
            json.dump(rep.to_dict(), fh, indent=2)
        outcome.update(pct_loss=loss(inst, plan).pct_loss, violations=len(rep.violations),
                       worst_spec_violation=rep.worst_spec_violation)
    record = _record(vars(ns), horizon=inst.horizon, **outcome)
    with open(os.path.join(out_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    return record


# The flags that set a model's options, shared by `solve` and `export`.
_MODEL_FLAGS = argparse.ArgumentParser(add_help=False)
_MODEL_FLAGS.add_argument("--eps-hat", dest="eps_hat", default="1.0",
                          help="precision, a number or q1=v1,q2=v2")
_MODEL_FLAGS.add_argument("--no-tighten", dest="no_tighten", action="store_true")
_MODEL_DEFAULTS = vars(_MODEL_FLAGS.parse_args([]))

_SOLVE_FLAGS = argparse.ArgumentParser(add_help=False, parents=[_MODEL_FLAGS])
_SOLVE_FLAGS.add_argument("--method", choices=["center", "mccormick"], default="center")
_SOLVE_FLAGS.add_argument("--scheme", choices=["flat", "full", "partial"], default="flat")
_SOLVE_FLAGS.add_argument("--periods", choices=["fixed", "run"], default="run")
_SOLVE_FLAGS.add_argument("--dt", type=int, default=7)
_SOLVE_FLAGS.add_argument("--h-nf", dest="h_nf", type=int, default=90)
_SOLVE_FLAGS.add_argument("--n-present", dest="n_present", type=int, default=1)
_SOLVE_FLAGS.add_argument("--n-step", dest="n_step", type=int, default=1)
_SOLVE_FLAGS.add_argument("--mip-gap", dest="mip_gap", type=float, default=0.005)
_SOLVE_FLAGS.add_argument("--time-limit", dest="time_limit", type=float, default=600.0)

_SOLVE_DEFAULTS = vars(_SOLVE_FLAGS.parse_args([]))
_CONFIG_KEYS = frozenset(_SOLVE_DEFAULTS) | {"instance", "out_dir"}
# A bench config: each run is a JSON object whose keys run_solve_config checks.
_BENCH_CONFIG = record(dict, {"runs": array(keyed(Shape(lambda value, path: value, None))),
                              "out_dir": optional(STRING), "workers": optional(COUNT)},
                       label="top level")


def cmd_validate(args) -> int:
    # parsed only: `read_instance` would raise on the violations this reports
    rep = validate_instance(parse_instance(args.instance))
    print(json.dumps({"ok": rep.ok, "violations": [str(v) for v in rep.violations]}, indent=2))
    return 0 if rep.ok else 2


def cmd_gen(args) -> int:
    # every jitter flag defaults to 0; without a seed none would take effect
    given = [f"--{k.replace('_', '-')}" for k in ("jitter_volume", "jitter_spec", "jitter_window")
             if args.seed is None and getattr(args, k)]
    if given:
        raise ValueError(f"jitter flags need --seed, got {', '.join(given)}")
    inst = read_instance(args.instance)
    if args.extend is not None:
        inst = extend_periodic(inst, args.extend)
    if args.seed is not None:
        jitter = RandomizationParams(volume_rel=args.jitter_volume,
                                     spec_rel=args.jitter_spec,
                                     window_shift=args.jitter_window)
        inst = randomize_supply(inst, args.seed, jitter)
    write_instance(inst, args.out)
    print(json.dumps({"out": args.out, "horizon": inst.horizon,
                      "barges": len(inst.barges), "runs": len(inst.runs)}))
    return 0


def cmd_solve(args) -> int:
    results = _results_path(args.out_dir)
    record = run_solve_config({k: v for k, v in vars(args).items() if k in _CONFIG_KEYS})
    _append_results(results, [record])
    print(json.dumps(record, indent=2))
    if record["status"] in OK_STATUSES:
        return 0
    return 1 if record["status"] == "infeasible" else 2


def cmd_simulate(args) -> int:
    inst = read_instance(args.instance)
    plan = read_plan(args.plan)
    trace = simulate(inst, plan)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(trace.to_dict(), fh, indent=2)
    if args.csv:
        _trace_csv(inst, trace, args.csv)
    if not args.out and not args.csv:
        print(json.dumps(trace.to_dict()))
    return 0


def cmd_audit(args) -> int:
    inst = read_instance(args.instance)
    plan = read_plan(args.plan)
    rep = audit(inst, simulate(inst, plan), plan)
    text = json.dumps(rep.to_dict(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if rep.ok else 1


def cmd_loss(args) -> int:
    inst = read_instance(args.instance)
    plan = read_plan(args.plan)
    print(json.dumps(loss(inst, plan).to_dict(), indent=2))
    return 0


def cmd_export(args) -> int:
    if args.method in ("exact-mix", "exact-split"):
        given = ["--" + k.replace("_", "-") for k, v in _MODEL_DEFAULTS.items()
                 if getattr(args, k) != v]
        if given:
            raise ValueError(f"method {args.method} takes no model flags, got {', '.join(given)}")
    inst = read_instance(args.instance)
    if args.method == "exact-mix":
        model = build_exact_mix(inst)
    elif args.method == "exact-split":
        model = build_exact_split(inst)
    else:
        model = _builder_for(args)(inst)
    if model.has_bilinear():
        if not args.out.endswith(".lp"):
            print("note: bilinear model, writing LP format", file=sys.stderr)
        model.write_lp(args.out)
    else:
        if args.out.endswith(".lp"):
            model.write_lp(args.out)
        else:
            model.write_mps(args.out)
    model.write_sidecar(args.out + ".tags.json")
    print(json.dumps({"out": args.out, "vars": model.n_vars, "rows": model.n_rows,
                      "binary": model.n_binary,
                      "bilinear": len(model.quad_rows)}))
    return 0


def _results_path(out_dir: str) -> str:
    """The ``results.csv`` of ``out_dir``; one whose header is not
    ``RESULT_FIELDS`` raises ``ValueError``, as its rows would misalign."""
    path = os.path.join(out_dir, "results.csv")
    if os.path.exists(path):
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header != RESULT_FIELDS:
            raise ValueError(f"{path} has columns {header}, not those of record version "
                             f"{RESULTS_VERSION}; write to another --out-dir")
    return path


def _append_results(path: str, records: list[dict]) -> None:
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        if new:
            w.writeheader()
        for rec in records:
            w.writerow(rec)


def _profiles(records: list[dict], out_dir: str) -> None:
    methods = sorted({r["method"] for r in records if r.get("status") in OK_STATUSES})
    for method in methods:
        runs = [r for r in records if r["method"] == method]    # error rows too
        rows = [r for r in runs if r.get("status") in OK_STATUSES]
        times = sorted(r["wall_time_s"] for r in rows)
        with open(os.path.join(out_dir, f"profile_time_{method}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["wall_time_s", "fraction_finished"])
            for i, t in enumerate(times, start=1):
                w.writerow([t, i / len(runs)])
        losses = sorted(r["pct_loss"] for r in rows)
        with open(os.path.join(out_dir, f"profile_loss_{method}.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pct_loss", "fraction_at_or_below"])
            for i, v in enumerate(losses, start=1):
                w.writerow([v, i / len(losses)])


def default_matrix(instances: list[str]) -> list[dict]:
    """Cross the provided instance files with both MILP methods at coarse
    and fine precision; the budget per run is the usual 600 seconds."""
    runs = []
    for path in instances:
        for eps in (1.0, 0.25):
            for method in ("center", "mccormick"):
                runs.append({"instance": path, "method": method,
                             "eps_hat": eps, "time_limit": 600.0})
    return runs


def cmd_bench(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = _BENCH_CONFIG.read(json.load(fh))
        runs = config["runs"]
    elif args.matrix:
        config = {}
        runs = default_matrix(args.matrix)
    else:
        raise InstanceError("bench needs --config or --matrix")
    if not runs:
        raise InstanceError("bench config has no runs")
    workers = COUNT.read(args.workers, "--workers") or config.get("workers", 1)
    out_dir = args.out_dir or config.get("out_dir", "bench_out")
    results = _results_path(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    tasks = []
    for i, run in enumerate(runs):
        task = {**_SOLVE_DEFAULTS, **run}
        task["out_dir"] = os.path.join(out_dir, f"run_{i:03d}")
        tasks.append(task)

    def record_of(task, call, *args):
        try:
            return call(*args)
        except Exception as e:  # keep going, record the failure
            return _record(task, status="error", message=str(e))

    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_solve_config, t) for t in tasks]
            records = [record_of(t, f.result) for t, f in zip(tasks, futures)]
    else:
        records = [record_of(t, run_solve_config, t) for t in tasks]
    _append_results(results, records)
    _profiles(records, out_dir)
    n_ok = sum(1 for r in records if r.get("status") in OK_STATUSES)
    print(json.dumps({"runs": len(records), "ok": n_ok, "out_dir": out_dir}))
    return 0 if n_ok == len(records) else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="blendplan",
                                     description="barge unloading / tank blending scheduler")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="extend an instance periodically and/or randomize supply")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--extend", type=int, help="target horizon in days")
    p.add_argument("--seed", type=int)
    p.add_argument("--jitter-volume", dest="jitter_volume", type=float, default=0.0)
    p.add_argument("--jitter-spec", dest="jitter_spec", type=float, default=0.0)
    p.add_argument("--jitter-window", dest="jitter_window", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[_SOLVE_FLAGS],
                       help="build, solve, simulate, audit, report")
    p.add_argument("--instance", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="recover true volumes/specs from a plan")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="check a plan against the original rules")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("loss", help="value-loss metric of a plan")
    p.add_argument("--instance", required=True)
    p.add_argument("--plan", required=True)
    p.set_defaults(func=cmd_loss)

    p = sub.add_parser("export", parents=[_MODEL_FLAGS], help="write a model interchange file")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=["center", "mccormick", "exact-mix", "exact-split"],
                   required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("bench", help="run a config matrix, emit results and profiles")
    p.add_argument("--config", help="JSON config with a 'runs' list")
    p.add_argument("--matrix", nargs="+",
                   help="instance files: run the default method x precision matrix")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--workers", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, PlanInconsistencyError, RollingError, SolverError, OSError,
            ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
