"""Exact forward simulation of a flow plan, feasibility audit, and the
value-loss metric.

The simulator is the semantic reference: given the unload/feed volumes it
recovers the unique tank volumes and concentrations, assuming all inflows
of a day are fully mixed before any outflow.  The audit then checks a plan
and its trace against the *original* (un-buffered) requirements and
reports every violation with a magnitude.

`grid_oracle` is an independent brute-force search over coarse volume
grids for very small instances, used to sandwich optimizer results.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

from .instance import Instance, derive_sets

PLAN_SCHEMA = "blendplan-plan/1"
VOL_TOL = 1e-6    # metric tons: deviations below this are float noise
SPEC_TOL = 1e-6   # concentration points


class PlanInconsistencyError(ValueError):
    """Plan implies negative inventory or feed drawn from an empty tank."""


@dataclass
class FlowPlan:
    y_in: dict[tuple[str, str, int], float] = field(default_factory=dict)
    y_out: dict[tuple[str, int], float] = field(default_factory=dict)
    gamma: dict[tuple[str, int], int] = field(default_factory=dict)
    sigma: dict[tuple[str, int], int] = field(default_factory=dict)
    v_unused: dict[str, float] = field(default_factory=dict)
    mis: dict[int, float] = field(default_factory=dict)

    def inflow(self, k: str, t: int, barges) -> float:
        return sum(self.y_in.get((b, k, t), 0.0) for b in barges)

    def unloaded_total(self, s: str) -> float:
        return sum(v for (b, _, _), v in self.y_in.items() if b == s)

    def unload_days(self, s: str) -> list[int]:
        return sorted(t for (b, t), g in self.gamma.items() if b == s and g)

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "y_in": [[s, k, t, v] for (s, k, t), v in sorted(self.y_in.items())],
            "y_out": [[k, t, v] for (k, t), v in sorted(self.y_out.items())],
            "gamma": [[s, t, int(g)] for (s, t), g in sorted(self.gamma.items())],
            "sigma": [[k, t, int(g)] for (k, t), g in sorted(self.sigma.items())],
            "v_unused": {s: v for s, v in sorted(self.v_unused.items())},
            "mis": [[t, v] for t, v in sorted(self.mis.items())],
        }


def plan_from_dict(data: dict) -> FlowPlan:
    if data.get("schema") != PLAN_SCHEMA:
        raise ValueError(f"expected schema {PLAN_SCHEMA!r}, got {data.get('schema')!r}")
    return FlowPlan(
        y_in={(s, k, int(t)): float(v) for s, k, t, v in data.get("y_in", [])},
        y_out={(k, int(t)): float(v) for k, t, v in data.get("y_out", [])},
        gamma={(s, int(t)): int(g) for s, t, g in data.get("gamma", [])},
        sigma={(k, int(t)): int(g) for k, t, g in data.get("sigma", [])},
        v_unused={s: float(v) for s, v in data.get("v_unused", {}).items()},
        mis={int(t): float(v) for t, v in data.get("mis", [])},
    )


def write_plan(plan: FlowPlan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan.to_dict(), fh, indent=2)
        fh.write("\n")


def read_plan(path) -> FlowPlan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh))


def empty_plan(inst: Instance) -> FlowPlan:
    """The all-zero-flow plan: everything unused, all demand missed."""
    ds = derive_sets(inst)
    return FlowPlan(
        v_unused={b.id: b.volume for b in inst.barges},
        mis={t: ds.demand(t) for t in ds.demand_days},
    )


# ---------------------------------------------------------------------------
# Simulation


@dataclass
class SimulationTrace:
    v_mid: dict[tuple[str, int], float]
    v_end: dict[tuple[str, int], float]
    f: dict[tuple[str, str, int], float]       # tank spec at end of day
    feed_volume: dict[int, float]
    feed_spec: dict[tuple[str, int], float]    # defined where feed_volume > 0
    horizon: int

    def to_dict(self) -> dict:
        return {
            "schema": "blendplan-trace/1",
            "horizon": self.horizon,
            "v_mid": [[k, t, v] for (k, t), v in sorted(self.v_mid.items())],
            "v_end": [[k, t, v] for (k, t), v in sorted(self.v_end.items())],
            "f": [[k, q, t, v] for (k, q, t), v in sorted(self.f.items())],
            "feed_volume": [[t, v] for t, v in sorted(self.feed_volume.items())],
            "feed_spec": [[q, t, v] for (q, t), v in sorted(self.feed_spec.items())],
        }


def simulate(inst: Instance, plan: FlowPlan, through_day: int | None = None) -> SimulationTrace:
    """Forward-propagate tank volumes and specs under the plan.

    Within a day: all inflows mix completely, then outflow happens.  With
    no volume in a tank the previous spec value carries forward; feed from
    an empty tank is a plan inconsistency, as is negative inventory.
    """
    H = inst.horizon if through_day is None else through_day
    spec_ids = inst.spec_ids()
    v_mid: dict[tuple[str, int], float] = {}
    v_end: dict[tuple[str, int], float] = {}
    f: dict[tuple[str, str, int], float] = {}
    feed_volume: dict[int, float] = {}
    feed_spec: dict[tuple[str, int], float] = {}

    state_v = {k.id: k.v_init for k in inst.tanks}
    state_f = {(k.id, q): k.specs_init[q] for k in inst.tanks for q in spec_ids}
    barge_specs = {b.id: b.specs for b in inst.barges}
    inflows_by_kt: dict[tuple[str, int], list[tuple[str, float]]] = {}
    for (s, k, t), v in plan.y_in.items():
        if v:
            inflows_by_kt.setdefault((k, t), []).append((s, v))

    for t in range(H):
        for tank in inst.tanks:
            k = tank.id
            vin = inflows_by_kt.get((k, t), ())
            total_in = sum(v for _, v in vin)
            vm = state_v[k] + total_in
            out = plan.y_out.get((k, t), 0.0)
            if out < -VOL_TOL:
                raise PlanInconsistencyError(f"negative feed from {k} on day {t}")
            if vm - out < -VOL_TOL:
                raise PlanInconsistencyError(
                    f"tank {k} day {t}: outflow {out} exceeds available volume {vm}")
            if out > VOL_TOL and vm <= VOL_TOL:
                raise PlanInconsistencyError(f"tank {k} day {t}: feed from an empty tank")
            for q in spec_ids:
                if vm > 0.0:
                    mass = state_f[(k, q)] * state_v[k]
                    mass += sum(barge_specs[s][q] * v for s, v in vin)
                    state_f[(k, q)] = mass / vm
                f[(k, q, t)] = state_f[(k, q)]
            v_mid[(k, t)] = vm
            state_v[k] = max(vm - out, 0.0)
            v_end[(k, t)] = state_v[k]
        vol = sum(plan.y_out.get((k.id, t), 0.0) for k in inst.tanks)
        feed_volume[t] = vol
        if vol > 0.0:
            for q in spec_ids:
                num = sum(f[(k.id, q, t)] * plan.y_out.get((k.id, t), 0.0) for k in inst.tanks)
                feed_spec[(q, t)] = num / vol
    return SimulationTrace(v_mid, v_end, f, feed_volume, feed_spec, H)


# ---------------------------------------------------------------------------
# Feasibility audit against the original requirements


@dataclass(frozen=True)
class FeasViolation:
    tag: str
    index: tuple
    magnitude: float


@dataclass
class FeasibilityReport:
    violations: list[FeasViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.tag] = out.get(v.tag, 0) + 1
        return out

    def by_tag(self, *tags: str) -> list[FeasViolation]:
        want = set(tags)
        return [v for v in self.violations if v.tag in want]

    @property
    def worst_spec_violation(self) -> float:
        mags = [v.magnitude for v in self.by_tag("feed_spec_lb", "feed_spec_ub")]
        return max(mags, default=0.0)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "worst_spec_violation": self.worst_spec_violation,
            "violations": [{"tag": v.tag, "index": list(v.index), "magnitude": v.magnitude}
                           for v in self.violations],
        }


def audit(inst: Instance, trace: SimulationTrace, plan: FlowPlan) -> FeasibilityReport:
    """Check a simulated plan against the original (un-buffered) rules."""
    rep = FeasibilityReport()
    add = rep.violations.append
    ds = derive_sets(inst)
    H = trace.horizon
    allowed = {b.id: set(b.allowed_tanks) for b in inst.barges}
    windows = ds.window_by_barge

    # inventory bounds
    for tank in inst.tanks:
        k = tank.id
        for t in range(H):
            if trace.v_end[(k, t)] < tank.v_min - VOL_TOL:
                add(FeasViolation("inv_lb", (k, t), tank.v_min - trace.v_end[(k, t)]))
            if trace.v_mid[(k, t)] > tank.v_max + VOL_TOL:
                add(FeasViolation("inv_ub", (k, t), trace.v_mid[(k, t)] - tank.v_max))

    # flows only where allowed
    for (s, k, t), v in sorted(plan.y_in.items()):
        if v <= VOL_TOL:
            continue
        w = windows.get(s)
        if w is None or not (w[0] <= t <= w[1]) or t >= H:
            add(FeasViolation("supply_window", (s, k, t), v))
        elif k not in allowed[s]:
            add(FeasViolation("supply_window", (s, k, t), v))
        if not plan.gamma.get((s, t), 0):
            add(FeasViolation("unload_flow_gate", (s, k, t), v))

    # supply totals and unload-count rules
    for b in inst.barges:
        s = b.id
        total = plan.unloaded_total(s)
        slack = plan.v_unused.get(s, b.volume - total)
        if abs(total + slack - b.volume) > VOL_TOL:
            add(FeasViolation("supply_total", (s,), abs(total + slack - b.volume)))
        days = plan.unload_days(s)
        limit = inst.barge_max_unloads(s)
        if len(days) > limit:
            add(FeasViolation("barge_unload_limit", (s,), len(days) - limit))
        if days and days[-1] - days[0] > inst.ops.max_unload_gap:
            add(FeasViolation("unload_gap", (s,), days[-1] - days[0] - inst.ops.max_unload_gap))
        for t in days:
            pulled = sum(plan.y_in.get((s, k, t), 0.0) for k in b.allowed_tanks)
            need = inst.barge_min_unload_pct(s) * b.volume
            if pulled < need - VOL_TOL:
                add(FeasViolation("unload_min_pct", (s, t), need - pulled))

    by_day: dict[int, int] = {}
    for (s, t), g in plan.gamma.items():
        if g:
            by_day[t] = by_day.get(t, 0) + 1
    for t, n in sorted(by_day.items()):
        if n > inst.ops.max_unloads_per_day:
            add(FeasViolation("daily_unload_limit", (t,), n - inst.ops.max_unloads_per_day))

    # demand balance, feed shares, constant feed, spec and ratio bounds
    for r in inst.runs:
        d = r.daily_demand
        for t in range(r.days[0], r.days[1] + 1):
            served = trace.feed_volume.get(t, 0.0)
            mis = plan.mis.get(t, d - served)
            if abs(served + mis - d) > VOL_TOL or mis < -VOL_TOL:
                add(FeasViolation("demand_balance", (t,), abs(served + mis - d)))
            for tank in inst.tanks:
                k = tank.id
                out = plan.y_out.get((k, t), 0.0)
                sig = plan.sigma.get((k, t), 1 if out > VOL_TOL else 0)
                if out > d * sig + VOL_TOL:
                    add(FeasViolation("feed_share_ub", (k, t), out - d * sig))
                if out < tank.min_feed_pct * d * sig - VOL_TOL:
                    add(FeasViolation("feed_share_lb", (k, t), tank.min_feed_pct * d * sig - out))
                if t > r.days[0]:
                    prev = plan.y_out.get((k, t - 1), 0.0)
                    if abs(out - prev) > VOL_TOL:
                        add(FeasViolation("run_const_feed", (k, t), abs(out - prev)))
            if served > VOL_TOL:
                for q, (lo, hi) in sorted(r.spec_bounds.items()):
                    fp = trace.feed_spec[(q, t)]
                    if fp < lo - SPEC_TOL:
                        add(FeasViolation("feed_spec_lb", (q, t), lo - fp))
                    if fp > hi + SPEC_TOL:
                        add(FeasViolation("feed_spec_ub", (q, t), fp - hi))
                for (q1, q2), (lo, hi) in sorted(r.ratio_bounds.items()):
                    # denominator multiplied through; magnitude back in ratio units
                    num = trace.feed_spec[(q1, t)] * served
                    den = trace.feed_spec[(q2, t)] * served
                    if den <= 0.0:
                        add(FeasViolation("feed_ratio_lb", (q1, q2, t), math.inf))
                        continue
                    if num < lo * den - SPEC_TOL * served:
                        add(FeasViolation("feed_ratio_lb", (q1, q2, t), (lo * den - num) / den))
                    if num > hi * den + SPEC_TOL * served:
                        add(FeasViolation("feed_ratio_ub", (q1, q2, t), (num - hi * den) / den))

    # feed on non-demand days
    for (k, t), v in sorted(plan.y_out.items()):
        if v > VOL_TOL and ds.demand(t) == 0.0:
            add(FeasViolation("demand_balance", (t,), v))
    return rep


# ---------------------------------------------------------------------------
# Value-loss metric


@dataclass(frozen=True)
class LossReport:
    val_target: float
    val_missed: float
    pct_loss: float

    def to_dict(self) -> dict:
        return {"val_target": self.val_target, "val_missed": self.val_missed,
                "pct_loss": self.pct_loss}


def value_target(inst: Instance) -> float:
    return derive_sets(inst).value_target


def loss(inst: Instance, plan: FlowPlan) -> LossReport:
    """Fraction of attainable value (supply + demand, penalty-weighted)
    that the plan fails to capture."""
    ds = derive_sets(inst)
    target = ds.value_target
    if target == 0.0:
        raise ValueError("instance has zero attainable value")
    missed = sum(b.unload_penalty * plan.v_unused.get(b.id, 0.0) for b in inst.barges)
    missed += sum(ds.miss_penalty_by_day[t] * plan.mis.get(t, 0.0) for t in ds.demand_days)
    return LossReport(target, missed, 100.0 * missed / target)


def plan_objective(inst: Instance, plan: FlowPlan) -> float:
    """Reported (maximization) objective of a plan: target minus misses."""
    rep = loss(inst, plan)
    return rep.val_target - rep.val_missed


# ---------------------------------------------------------------------------
# Brute-force oracle for tiny instances


def grid_oracle(inst: Instance, grid_step: float = 0.25) -> float:
    """Best objective over plans on a coarse volume grid (tiny instances).

    Unload fractions and feed shares are multiples of ``grid_step``; each
    unload event targets a single tank.  A candidate whose value cannot
    beat the best so far is skipped before simulation; every other one is
    simulated and audited, so the result is still attained by a plan
    feasible for the original rules.  Searching a refinement (halved step)
    can only improve.
    """
    if len(inst.barges) > 2 or len(inst.tanks) > 2 or inst.horizon > 6:
        raise ValueError("grid_oracle is limited to <=2 barges, <=2 tanks, horizon <=6")
    if not (0.0 < grid_step <= 1.0):
        raise ValueError("grid_step must be in (0, 1]")
    ds = derive_sets(inst)
    H = inst.horizon
    levels = [round(j * grid_step, 12) for j in range(1, int(round(1.0 / grid_step)) + 1)]

    barge_choices = []
    for b in inst.barges:
        opts: list[list[tuple[int, str, float]]] = [[]]  # (day, tank, fraction)
        days_avail = [t for t in range(b.window[0], min(b.window[1], H - 1) + 1)]
        limit = inst.barge_max_unloads(b.id)
        p_min = inst.barge_min_unload_pct(b.id)
        for n_ev in range(1, limit + 1):
            for days in itertools.combinations(days_avail, n_ev):
                if days[-1] - days[0] > inst.ops.max_unload_gap:
                    continue
                fr_opts = [f for f in levels if f >= p_min - 1e-12]
                for fracs in itertools.product(fr_opts, repeat=n_ev):
                    if sum(fracs) > 1.0 + 1e-12:
                        continue
                    for tanks in itertools.product(b.allowed_tanks, repeat=n_ev):
                        opts.append([(t, k, fr) for t, k, fr in zip(days, tanks, fracs)])
        barge_choices.append((b, opts))

    runs = inst.runs
    feed_choices_per_run = []
    for r in runs:
        per_tank = []
        for tank in inst.tanks:
            shares = [0.0] + [c for c in levels if c >= tank.min_feed_pct - 1e-12]
            per_tank.append(shares)
        combos = [c for c in itertools.product(*per_tank) if sum(c) <= 1.0 + 1e-12]
        feed_choices_per_run.append(combos)

    best = None
    tank_ids = [t.id for t in inst.tanks]
    for events in itertools.product(*(opts for _, opts in barge_choices)):
        day_counts: dict[int, int] = {}
        ok = True
        for ev in events:
            for t, _, _ in ev:
                day_counts[t] = day_counts.get(t, 0) + 1
                if day_counts[t] > inst.ops.max_unloads_per_day:
                    ok = False
        if not ok:
            continue
        y_in = {}
        gamma = {}
        v_unused = {}
        for (b, _), ev in zip(barge_choices, events):
            used = 0.0
            for t, k, fr in ev:
                vol = fr * b.volume
                y_in[(b.id, k, t)] = y_in.get((b.id, k, t), 0.0) + vol
                gamma[(b.id, t)] = 1
                used += vol
            v_unused[b.id] = b.volume - used
        for feed in itertools.product(*feed_choices_per_run):
            y_out = {}
            sigma = {}
            mis = {}
            for r, shares in zip(runs, feed):
                for t in range(r.days[0], r.days[1] + 1):
                    for k, c in zip(tank_ids, shares):
                        if c > 0.0:
                            y_out[(k, t)] = c * r.daily_demand
                            sigma[(k, t)] = 1
                    mis[t] = r.daily_demand * (1.0 - sum(shares))
            plan = FlowPlan(y_in=dict(y_in), y_out=y_out, gamma=dict(gamma),
                            sigma=sigma, v_unused=dict(v_unused), mis=mis)
            val = plan_objective(inst, plan)
            if best is not None and val <= best:
                continue
            try:
                trace = simulate(inst, plan)
            except PlanInconsistencyError:
                continue
            if audit(inst, trace, plan).ok:
                best = val
    if best is None:  # the all-miss plan is always feasible
        best = plan_objective(inst, empty_plan(inst))
    return best
