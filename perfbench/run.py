#!/usr/bin/env python3
"""blendplan benchmark: one workload per invocation, from instance file to
audited result, timed from outside the package.

    python3 perfbench/run.py --workload flat30_center --seed 0 --seconds 10 --trace 0

Inputs are generated from ``--seed`` into ``.perfbench_work/`` at the root
of the checkout before timing starts.  Passes over the workload repeat
until ``--seconds`` have been measured (at least one pass); every operation
of every pass is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` one
untraced pass is followed by one traced pass, and the metrics are the
per-layer ones read from the traced pass's spans.  The metric names and
units are those ``BENCHMARK.json`` lists.  ``--quick`` runs every
workload's code path on a reduced input in seconds (the benchmark's own
test, see ``sweep.py --quick``).  The exit code is 0 when every check
passed, 1 when one failed and 2 when the benchmark could not run.

The package is imported from ``src/`` next to this directory and driven
only through public entry points: ``blendplan.cli.run_solve_config`` and
``blendplan.cli.main`` for the timed passes, and the library functions
exported by ``blendplan/__init__.py`` for the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3       # set-up runs per invocation; setup_s is their median
PASS_CAP_S = 120.0      # no new pass starts once this much has been measured
CHILD_TIMEOUT_S = 60.0
REL_TOL = 1e-9

# The `blendplan solve` flags each workload sets over the CLI defaults.
# Every rolling workload uses run-based periods.
SOLVE_CONFIGS = {
    "flat30_center": {"scheme": "flat"},
    "roll30_full": {"scheme": "full", "periods": "run", "dt": 7, "h_nf": 30,
                    "n_present": 1, "n_step": 1},
    "roll45_partial": {"scheme": "partial", "periods": "run", "dt": 7, "h_nf": 30},
}
QUICK_ROLL = {"dt": 3, "h_nf": 6}
# The CLI defaults every workload keeps, restated for the traced pass.
SOLVE_DEFAULTS = {"method": "center", "eps_hat": "1.0", "mip_gap": 0.005,
                  "time_limit": 600.0}

# Horizon (days) of each generated instance; 30 is the bundled sample as is.
HORIZONS = {"flat30_center": 30, "roll30_full": 30, "roll45_partial": 45,
            "export120": 120}
JITTER = {"volume_rel": 0.1, "spec_rel": 0.05, "window_shift": 2}

# A plan that loses more value than this (pct_loss, in percent) fails its
# check: a faster run that loses value is a regression.  Every solve
# workload's plan loses 0 % at the baseline; the ceiling allows half a
# percentage point.
LOSS_CEILING_PCT = 0.5

EXPORT_METHODS = (("center", "mps"), ("mccormick", "mps"),
                  ("exact-mix", "lp"), ("exact-split", "lp"))

ORACLE_COUNT = 8
ORACLE_GRID = 0.25
# (tanks, day count of each barge window); the shapes fix the size of the
# grid the oracle enumerates, the seed draws every value inside them.
TINY_SHAPES = ((1, (3,)), (1, (2, 2)), (2, (3,)), (2, (2,)))

class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, failed set-up)."""


def import_blendplan():
    if not os.path.isfile(os.path.join(SRC, "blendplan", "__init__.py")):
        raise SetupError(f"no blendplan source tree under {SRC}")
    sys.path.insert(0, SRC)
    import blendplan
    if not os.path.abspath(blendplan.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported blendplan from {blendplan.__file__}, not {SRC}")
    return blendplan


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    if not os.path.isfile(SPEC):
        raise SetupError(f"no {SPEC}")
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# ---------------------------------------------------------------------------
# Inputs


def tiny_instance(bp, rng: random.Random, shape, tight: bool):
    """Oracle-sized instance: one spec, six days, one three-day run.

    Volumes, demand and the layout of specs are fixed, so the oracle
    enumerates and audits the same number of candidate plans for every
    seed; the seed moves each spec value within a fixed band.
    """
    n_tanks, windows = shape
    base = 50.0 + rng.uniform(-4.0, 4.0)
    tanks = tuple(
        bp.Tank(f"T{i + 1}", 1000.0, 100.0, 400.0 + 100.0 * i,
                {"P": base - 1.5 + 3.0 * i + rng.uniform(-0.3, 0.3)}, 0.10)
        for i in range(n_tanks))
    tank_ids = tuple(t.id for t in tanks)
    barges = tuple(
        bp.Barge(f"B{i + 1}", 400.0 - 100.0 * i,
                 {"P": base + 3.0 - 5.0 * i + rng.uniform(-0.3, 0.3)},
                 (i, i + days - 1), 1000.0, tank_ids)
        for i, days in enumerate(windows))
    specs = [t.specs_init["P"] for t in tanks] + [b.specs["P"] for b in barges]
    lo, hi = min(specs), max(specs)
    window = (lo + 0.3 * (hi - lo), hi - 0.3 * (hi - lo)) if tight else (lo - 5.0, hi + 5.0)
    runs = (bp.Run("R1", (2, 4), 200.0, {"P": window}, {}, 3000.0),)
    inst = bp.Instance((bp.SpecDef("P"),), barges, tanks, runs,
                       bp.OpsParams(2, 2, 7, 0.10, 6))
    bp.validate_instance(inst).raise_if_invalid()
    return inst


def make_inputs(bp, workload: str, seed: int, quick: bool, work: str) -> dict:
    """Generate and write the workload's instance files; return their paths."""
    os.makedirs(work, exist_ok=True)
    jitter = bp.RandomizationParams(**JITTER)
    if workload == "oracle_tiny":
        rng = random.Random(seed)
        count = 2 if quick else ORACLE_COUNT
        paths = []
        for i in range(count):
            inst = tiny_instance(bp, rng, TINY_SHAPES[i % len(TINY_SHAPES)], tight=i % 2 == 1)
            paths.append(os.path.join(work, f"tiny_{i}.json"))
            bp.write_instance(inst, paths[-1])
        return {"instances": paths}
    path = os.path.join(work, "instance.json")
    if quick and workload != "export120":
        # twelve days of a two-barge tiny instance: every scheme in seconds
        inst = tiny_instance(bp, random.Random(seed), (1, (2, 2)), tight=False)
        bp.write_instance(bp.extend_periodic(inst, 12), path)
    elif HORIZONS[workload] == 30:
        shutil.copyfile(bp.sample_instance_path(), path)
    else:
        inst = bp.read_instance(bp.sample_instance_path())
        if not quick:
            inst = bp.extend_periodic(inst, HORIZONS[workload])
        if workload == "export120":
            inst = bp.randomize_supply(inst, seed, jitter)
        bp.write_instance(inst, path)
    return {"instances": [path]}


def setup_only(args) -> None:
    """The set-up child: import blendplan, write the inputs, time both."""
    t0 = time.perf_counter()
    bp = import_blendplan()
    t1 = time.perf_counter()
    inputs = make_inputs(bp, args.workload, args.seed, args.quick,
                         os.path.join(WORK, args.workload))
    inputs.update(import_s=t1 - t0, inputs_s=time.perf_counter() - t1)
    print(json.dumps(inputs))


def run_setups(args) -> tuple[list[float], list[dict]]:
    """Set up in fresh interpreters; return each one's wall time and report."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    times, reports = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()}")
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times, reports


# ---------------------------------------------------------------------------
# Tracing: spans recorded by the benchmark around each public call


class Tracer:
    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name, time.perf_counter())
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the program itself, under the open span."""
        self._open(name, start)["end"] = end
        self._stack.pop()

    def _open(self, name: str, start: float) -> dict:
        rec = {"id": len(self.spans), "run": self.run_id, "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": start, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        return rec

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"] - child[s["id"]]
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


class Layers:
    """Per-layer counters of one traced pass, keyed by metric name."""

    def __init__(self):
        self.counts = {"builders.rows": 0, "builders.cols": 0, "builders.binaries": 0,
                       "model.bytes_written": 0, "solve.calls": 0,
                       "solve.time_limit_hits": 0, "solve.max_gap": 0.0,
                       "rolling.steps": 0, "rolling.max_step_s": 0.0,
                       "rolling.budget_frac": 0.0, "simulate.violations": 0}

    def built(self, model) -> None:
        self.counts["builders.rows"] += model.n_rows
        self.counts["builders.cols"] += model.n_vars
        self.counts["builders.binaries"] += model.n_binary

    def solved(self, res) -> None:
        self.counts["solve.calls"] += 1
        self.counts["solve.time_limit_hits"] += res.status == "time_limit"
        self.counts["solve.max_gap"] = max(self.counts["solve.max_gap"], res.gap or 0.0)


SPAN_METRICS = {
    "instance.read": "instance.read_s", "builders.make_plans": "builders.make_plans_s",
    "builders.build": "builders.build_s", "model.write": "model.write_s",
    "model.sidecar": "model.sidecar_s", "solve.solve": "solve.solve_s",
    "solve.extract": "solve.extract_s", "rolling.roll": "rolling.self_s",
    "simulate.simulate": "simulate.simulate_s", "simulate.audit": "simulate.audit_s",
    "simulate.loss": "simulate.loss_s", "simulate.oracle": "simulate.oracle_s",
    "cli.artifacts": "cli.artifacts_s", "pass": "trace.unattributed_s",
}


# ---------------------------------------------------------------------------
# Workloads: one untraced pass, one traced pass, and the output checks


class Workload:
    """The jobs of one pass: each pass runs them all, then checks each result."""

    def __init__(self, bp, name: str, quick: bool, inputs: dict, work: str):
        self.bp = bp
        self.name = name
        self.quick = quick
        self.paths = inputs["instances"]
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.flags: list[str] = []
        self.losses: list[float] = []
        # (plan objective, step count) of the first unflagged pass: the CLI's,
        # since the untraced passes run first.  HiGHS is deterministic here,
        # so every later pass, the traced one too, must give exactly these.
        self.reference: tuple[float, int] | None = None

    def out_dir(self, traced: bool) -> str:
        return os.path.join(self.work, "traced" if traced else "out")

    def run_pass(self, tr: Tracer | None = None, layers: Layers | None = None) -> list:
        """Run every job; return each one's result, or the exception it raised."""
        out_dir = self.out_dir(tr is not None)
        os.makedirs(out_dir, exist_ok=True)
        results = []
        for job in self.jobs():
            try:
                results.append(self.execute(job, out_dir) if tr is None
                               else self.execute_traced(job, out_dir, tr, layers))
            except Exception as e:  # a failed operation, counted by check_pass
                results.append(e)
        return results

    def check_pass(self, results: list, traced: bool) -> None:
        """Check every result of a pass, outside its timing."""
        for job, result in zip(self.jobs(), results):
            self.attempted += 1
            n_before = len(self.failures)
            if isinstance(result, Exception):
                self.failures.append(f"{type(result).__name__}: {result}")
            else:
                try:
                    self.verify(job, result, traced)
                except Exception as e:  # a check that cannot run has failed
                    self.failures.append(f"{type(e).__name__}: {e}")
            if len(self.failures) > n_before:
                self.failed += 1
                print(f"FAILED {self.name} {job}: {self.failures[-1]}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return ok


class SolveWorkload(Workload):
    """run_solve_config from the instance file to the audited plan and artifacts."""

    def jobs(self) -> list:
        return ["solve"]

    def config(self, out_dir: str) -> dict:
        cfg = {**SOLVE_DEFAULTS, **SOLVE_CONFIGS[self.name],
               "instance": self.paths[0], "out_dir": out_dir}
        if self.quick and cfg["scheme"] != "flat":
            cfg.update(QUICK_ROLL)
        return cfg

    def execute(self, job, out_dir: str) -> dict:
        return self.bp.cli.run_solve_config(self.config(out_dir))

    def execute_traced(self, job, out_dir: str, tr: Tracer, layers: Layers) -> dict:
        bp = self.bp
        cfg = self.config(out_dir)
        opts = bp.SolveOptions(mip_gap=cfg["mip_gap"], time_limit=cfg["time_limit"])
        eps_hat = float(cfg["eps_hat"])

        def builder(inst):
            with tr.span("builders.make_plans"):
                plans = bp.make_plans(inst, eps_hat)
            with tr.span("builders.build"):
                model = bp.build_center(inst, plans, bp.CenterOptions())
            layers.built(model)
            return model

        with tr.span("instance.read"):
            inst = bp.read_instance(cfg["instance"])
        if cfg["scheme"] == "flat":
            model = builder(inst)
            with tr.span("solve.solve"):
                res = bp.solve(model, opts)
            layers.solved(res)
            if res.status in ("infeasible", "error") or not res.has_values:
                return {"status": res.status, "message": res.message}
            with tr.span("solve.extract"):
                plan = bp.extract_flow_plan(model, res)
            record = {"status": res.status, "steps": 0}
        else:
            periods = bp.run_based_periods(inst.runs, inst.horizon, cfg["dt"])
            params = bp.RollParams(h_nf=cfg["h_nf"], n_present=cfg.get("n_present", 1),
                                   n_step=cfg.get("n_step", 1), solve=opts)
            roller = bp.roll_full if cfg["scheme"] == "full" else bp.roll_partial

            def on_step(step, model, res):
                end = time.perf_counter()
                tr.record("solve.solve", end - res.wall_time, end)
                layers.solved(res)
                layers.counts["rolling.max_step_s"] = max(layers.counts["rolling.max_step_s"],
                                                          res.wall_time)

            with tr.span("rolling.roll") as roll:
                result = roller(inst, periods, params, builder,
                                log_path=os.path.join(out_dir, "steps.jsonl"), on_step=on_step)
            plan = result.plan
            layers.counts["rolling.steps"] = len(result.steps)
            layers.counts["rolling.budget_frac"] = (roll["end"] - roll["start"]) / opts.time_limit
            record = {"status": "ok", "steps": len(result.steps)}
        with tr.span("cli.artifacts"):
            bp.write_plan(plan, os.path.join(out_dir, "plan.json"))
        with tr.span("simulate.simulate"):
            trace = bp.simulate(inst, plan)
        with tr.span("cli.artifacts"):
            _dump(trace.to_dict(), os.path.join(out_dir, "trace.json"))
        with tr.span("simulate.audit"):
            rep = bp.audit(inst, trace, plan)
        layers.counts["simulate.violations"] += len(rep.violations)
        with tr.span("cli.artifacts"):
            _dump(rep.to_dict(), os.path.join(out_dir, "audit.json"))
        with tr.span("simulate.loss"):
            ls = bp.loss(inst, plan)
        record.update(scheme=cfg["scheme"], pct_loss=ls.pct_loss, violations=len(rep.violations))
        with tr.span("cli.artifacts"):
            _dump(record, os.path.join(out_dir, "record.json"))
        return record

    def verify(self, job, record: dict, traced: bool) -> None:
        """Simulate the written plan exactly, audit it, check the loss identity."""
        bp = self.bp
        ok_statuses = bp.cli.OK_STATUSES
        if not self.check(record["status"] in ok_statuses,
                          f"status {record['status']}: {record.get('message', '')}"):
            return
        out_dir = self.out_dir(traced)
        artifacts = ["plan.json", "trace.json", "audit.json", "record.json"]
        for name in artifacts if traced else artifacts + ["trace.csv"]:
            self.check(os.path.isfile(os.path.join(out_dir, name)), f"no {name} written")
        statuses = [record["status"]]
        if record["scheme"] != "flat":
            with open(os.path.join(out_dir, "steps.jsonl")) as fh:
                statuses = [json.loads(line)["status"] for line in fh]
            self.check(len(statuses) == record["steps"], "steps.jsonl disagrees with record")
            self.check(all(s in ok_statuses for s in statuses), f"step statuses {statuses}")

        inst = bp.read_instance(self.paths[0])
        plan = bp.read_plan(os.path.join(out_dir, "plan.json"))
        rep = bp.audit(inst, bp.simulate(inst, plan), plan)
        ls = bp.loss(inst, plan)
        self.check(rep.ok and record["violations"] == 0,
                   f"audit: {len(rep.violations)} violations (reported {record['violations']})")
        self.check(_close(bp.plan_objective(inst, plan), ls.val_target - ls.val_missed),
                   "plan objective is not target minus missed value")
        self.check(_close(ls.pct_loss, record["pct_loss"]),
                   f"loss {ls.pct_loss} reported as {record['pct_loss']}")
        self.check(self.quick or ls.pct_loss <= LOSS_CEILING_PCT,
                   f"loss {ls.pct_loss:.4f} % above the {LOSS_CEILING_PCT} % ceiling")
        self.losses.append(ls.pct_loss)
        outcome = (bp.plan_objective(inst, plan), record["steps"])
        if "time_limit" in statuses:
            self.flags.append(f"time_limit status in {statuses.count('time_limit')} solve(s)")
        elif self.reference is None:
            self.reference = outcome
        else:
            self.check(outcome == self.reference,
                       f"{'traced' if traced else 'CLI'} pass: objective and steps {outcome}, "
                       f"first CLI pass {self.reference}")


class ExportWorkload(Workload):
    """`blendplan export` of the four models, each with its sidecar."""

    def __init__(self, *args):
        super().__init__(*args)
        self.hashes: dict[str, str] = {}

    def jobs(self) -> list:
        return list(EXPORT_METHODS)

    def execute(self, job, out_dir: str) -> dict:
        method, ext = job
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            rc = self.bp.cli.main(["export", "--instance", self.paths[0], "--method", method,
                                   "--out", os.path.join(out_dir, f"{method}.{ext}")])
        if rc != 0:
            raise RuntimeError(f"export {method} exited {rc}")
        return json.loads(stdout.getvalue().strip().splitlines()[-1])

    def execute_traced(self, job, out_dir: str, tr: Tracer, layers: Layers) -> dict:
        bp = self.bp
        method, ext = job
        with tr.span("instance.read"):
            inst = bp.read_instance(self.paths[0])
        if method in ("center", "mccormick"):
            with tr.span("builders.make_plans"):
                plans = bp.make_plans(inst, 1.0)
        with tr.span("builders.build"):
            if method == "center":
                model = bp.build_center(inst, plans, bp.CenterOptions())
            elif method == "mccormick":
                model = bp.build_mccormick(inst, plans)
            elif method == "exact-mix":
                model = bp.build_exact_mix(inst)
            else:
                model = bp.build_exact_split(inst)
        layers.built(model)
        path = os.path.join(out_dir, f"{method}.{ext}")
        with tr.span("model.write"):
            if ext == "mps":
                model.write_mps(path)
            else:
                model.write_lp(path)
        with tr.span("model.sidecar"):
            model.write_sidecar(path + ".tags.json")
        layers.counts["model.bytes_written"] += (os.path.getsize(path)
                                                 + os.path.getsize(path + ".tags.json"))
        return {"rows": model.n_rows, "vars": model.n_vars, "binary": model.n_binary}

    def verify(self, job, size: dict, traced: bool) -> None:
        """Same bytes on every pass and from the library; MPS counts round-trip."""
        from blendplan.model import parse_mps
        method, ext = job
        path = os.path.join(self.out_dir(traced), f"{method}.{ext}")
        self.check(os.path.isfile(path + ".tags.json"), f"export {method}: no sidecar")
        digest = _sha256(path)
        if method in self.hashes:
            self.check(digest == self.hashes[method],
                       f"export {method}: bytes differ from the first CLI export")
            return
        self.hashes[method] = digest
        if ext == "mps":
            stats = parse_mps(path)
            self.check((stats["rows"], stats["columns"], stats["integer_columns"])
                       == (size["rows"], size["vars"], size["binary"]),
                       f"export {method}: MPS counts {stats} differ from {size}")


class OracleWorkload(Workload):
    """grid_oracle on each tiny instance."""

    def __init__(self, *args):
        super().__init__(*args)
        self.values: dict[str, float] = {}

    def jobs(self) -> list:
        return self.paths

    def execute(self, path: str, out_dir: str) -> float:
        return self.bp.grid_oracle(self.bp.read_instance(path), ORACLE_GRID)

    def execute_traced(self, path: str, out_dir: str, tr: Tracer, layers: Layers) -> float:
        with tr.span("instance.read"):
            inst = self.bp.read_instance(path)
        with tr.span("simulate.oracle"):
            return self.bp.grid_oracle(inst, ORACLE_GRID)

    def verify(self, path: str, value: float, traced: bool) -> None:
        """Between the all-miss plan and the attainable value; same every pass."""
        inst = self.bp.read_instance(path)
        empty = self.bp.empty_plan(inst)
        lo, hi = self.bp.plan_objective(inst, empty), self.bp.loss(inst, empty).val_target
        self.check(lo - 1e-6 <= value <= hi + 1e-6, f"oracle value {value} outside [{lo}, {hi}]")
        first = self.values.setdefault(path, value)
        self.check(value == first, f"oracle value {value} differs from {first}")


KINDS = {"flat30_center": SolveWorkload, "roll30_full": SolveWorkload,
         "roll45_partial": SolveWorkload, "export120": ExportWorkload,
         "oracle_tiny": OracleWorkload}


# ---------------------------------------------------------------------------
# Helpers


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _dump(data, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def timed_passes(wl: Workload, seconds: float) -> list[float]:
    """Untraced passes until ``seconds`` are measured; at least one."""
    walls: list[float] = []
    while not walls or (sum(walls) < seconds and sum(walls) + walls[-1] < PASS_CAP_S):
        t0 = time.perf_counter()
        results = wl.run_pass()
        walls.append(time.perf_counter() - t0)
        wl.check_pass(results, traced=False)
    return walls


def per_layer(units: dict, tr: Tracer, layers: Layers, traced_wall: float,
              untraced_wall: float, inputs_s: float) -> dict:
    values = {name: 0.0 for name in units}
    for span_name, seconds in tr.self_times().items():
        values[SPAN_METRICS[span_name]] += seconds
    values.update(layers.counts)
    roll = tr.total("rolling.roll")
    if roll:
        builder = sum(s["end"] - s["start"] for s in tr.spans
                      if s["name"].startswith("builders.")
                      and tr.spans[s["parent"]]["name"] == "rolling.roll")
        values["rolling.builder_s"] = builder
        values["rolling.step_solve_s"] = values["solve.solve_s"]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["setup.inputs_s"] = inputs_s
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def run(args) -> int:
    units = metric_units("per_layer" if args.trace else "end_to_end")
    bp = import_blendplan()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    setup_times, setups = run_setups(args)
    inputs_s = statistics.median(s["inputs_s"] for s in setups)
    import blendplan.cli  # noqa: F401  (public entry points used below)
    import numpy
    import scipy

    wl = KINDS[args.workload](bp, args.workload, args.quick, setups[-1], work)
    walls = timed_passes(wl, args.seconds)
    wall = statistics.median(walls)
    if args.trace:
        tr = Tracer()
        layers = Layers()
        t0 = time.perf_counter()
        with tr.span("pass"):
            results = wl.run_pass(tr, layers)
        traced_wall = time.perf_counter() - t0
        wl.check_pass(results, traced=True)
        tr.write(os.path.join(work, "spans.jsonl"))
        metrics = per_layer(units, tr, layers, traced_wall, wall, inputs_s)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ok_pct = 100.0 * (wl.attempted - wl.failed) / wl.attempted
        values = {"wall_s": wall, "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": rss_mb, "ok_pct": ok_pct}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    info = {"workload": args.workload, "seed": args.seed, "quick": args.quick,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "passes": len(walls), "pass_walls_s": walls, "setup_runs_s": setup_times,
            "setup_import_s": [s["import_s"] for s in setups],
            "setup_inputs_s": [s["inputs_s"] for s in setups],
            "fail_rate": wl.failed / wl.attempted,
            "timing_flags": wl.flags}
    if wl.losses:
        info["pct_loss"] = statistics.median(wl.losses)
    print(json.dumps(info))
    for name, m in metrics.items():
        print(f"{args.workload:15s} {name:24s} {m['value']:.6g} {m['unit']}")
    if wl.flags:
        print(f"{args.workload}: results depend on timing: {'; '.join(wl.flags)}")
    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    shutil.rmtree(os.path.join(work, "traced"), ignore_errors=True)
    print(json.dumps({"correct": wl.failed == 0, "attempted": wl.attempted,
                      "failed": wl.failed, "metrics": metrics}))
    return 0 if wl.failed == 0 else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="reduced inputs, seconds per workload")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_only:
            setup_only(args)
            return 0
        return run(args)
    except (SetupError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
