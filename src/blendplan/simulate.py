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

import heapq
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .instance import (BINARY, FINITE, STRING, WHOLE, Instance, derive_sets, entries,
                       keyed, optional, record)

PLAN_SCHEMA = "blendplan-plan/1"
VOL_TOL = 1e-6    # metric tons: deviations below this are float noise
SPEC_TOL = 1e-6   # concentration points


class PlanInconsistencyError(ValueError):
    """Plan names a barge, tank or day the instance lacks, or implies negative
    feed or inventory, or feed drawn from an empty tank."""


@dataclass
class FlowPlan:
    y_in: dict[tuple[str, str, int], float] = field(default_factory=dict)
    y_out: dict[tuple[str, int], float] = field(default_factory=dict)
    gamma: dict[tuple[str, int], int] = field(default_factory=dict)
    sigma: dict[tuple[str, int], int] = field(default_factory=dict)
    v_unused: dict[str, float] = field(default_factory=dict)
    mis: dict[int, float] = field(default_factory=dict)

    def unloaded_totals(self) -> dict[str, float]:
        """Volume unloaded from each barge that has a flow, in one pass."""
        out: dict[str, float] = {}
        for (s, _, _), v in self.y_in.items():
            out[s] = out.get(s, 0) + v
        return out

    def unloaded_total(self, s: str) -> float:
        return self.unloaded_totals().get(s, 0)

    def unload_days(self) -> dict[str, list[int]]:
        """The sorted unload days of each barge that has one, in one pass."""
        out: dict[str, list[int]] = {}
        for (s, t), g in sorted(self.gamma.items()):
            if g:
                out.setdefault(s, []).append(t)
        return out

    def to_dict(self) -> dict:
        return PLAN_FORMAT.write(self)


class PlanField(NamedTuple):
    """A ``FlowPlan`` field's model columns, of the kind named like it, one at
    each entry's key: ``parts`` names the key's ids, and ``read`` how a solve's
    value reads back ("binary": 0 or 1 by ``solve.round_binary``; "flow":
    clipped, kept only where positive; "slack": clipped, always kept)."""
    parts: tuple[str, ...]
    read: str

    def index(self, key) -> tuple:     # a one-part key is stored bare
        return key if len(self.parts) > 1 else (key,)


# The one map between plan entries and model columns, in FlowPlan field order.
PLAN_FIELDS = {
    "y_in": PlanField(("barge", "tank", "day"), "flow"),
    "y_out": PlanField(("tank", "day"), "flow"),
    "gamma": PlanField(("barge", "day"), "binary"),
    "sigma": PlanField(("tank", "day"), "binary"),
    "v_unused": PlanField(("barge",), "slack"),
    "mis": PlanField(("day",), "slack"),
}

PLAN_FORMAT = record(FlowPlan, {
    "y_in": optional(entries("[barge, tank, day, volume]", STRING, STRING, WHOLE, FINITE)),
    "y_out": optional(entries("[tank, day, volume]", STRING, WHOLE, FINITE)),
    "gamma": optional(entries("[barge, day, 0 or 1]", STRING, WHOLE, BINARY)),
    "sigma": optional(entries("[tank, day, 0 or 1]", STRING, WHOLE, BINARY)),
    "v_unused": optional(keyed(FINITE)),
    "mis": optional(entries("[day, volume]", WHOLE, FINITE)),
}, schema=PLAN_SCHEMA, label="plan")


def plan_from_dict(data: dict) -> FlowPlan:
    """The plan in ``data``; a missing member is empty, and a value of the
    wrong shape raises ``InstanceError``, a ``ValueError``, naming its path."""
    return PLAN_FORMAT.read(data)


def write_plan(plan: FlowPlan, path) -> None:
    with open(path, "w") as fh:
        json.dump(plan.to_dict(), fh, indent=2)
        fh.write("\n")


def read_plan(path) -> FlowPlan:
    with open(path) as fh:
        return plan_from_dict(json.load(fh))


def empty_plan(inst: Instance) -> FlowPlan:
    """The all-zero-flow plan: everything unused, all demand missed."""
    return _stated(inst, FlowPlan())


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


def _check_ids(inst: Instance, plan: FlowPlan) -> None:
    """Refuse an entry of any plan field that names a barge or tank the
    instance lacks or a day outside ``[0, inst.horizon)``."""
    known = {"barge": {b.id for b in inst.barges}, "tank": {k.id for k in inst.tanks},
             "day": range(inst.horizon)}
    for name, fld in PLAN_FIELDS.items():
        for key in getattr(plan, name):
            for part, x in zip(fld.parts, fld.index(key)):
                if x not in known[part]:
                    raise PlanInconsistencyError(
                        f"{name} names {part} {x!r}, which the instance lacks")


def simulate(inst: Instance, plan: FlowPlan, through_day: int | None = None) -> SimulationTrace:
    """Forward-propagate tank volumes and specs under the plan.

    Within a day: all inflows mix completely, then outflow happens.  With
    no volume in a tank the previous spec value carries forward; feed from
    an empty tank is a plan inconsistency, as are negative inventory and an
    entry of any field naming a barge or tank the instance lacks or a day
    outside ``[0, inst.horizon)``.
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
    _check_ids(inst, plan)
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


def _stated(inst: Instance, plan: FlowPlan) -> FlowPlan:
    """The plan with every ``v_unused`` and ``mis`` entry stated: a missing one
    is what the flows leave of the barge's volume or the day's demand, never
    below 0.  ``audit``, ``loss`` and ``roll_partial`` read both entries
    through this rule."""
    unloaded = plan.unloaded_totals()
    left = {b.id: max(b.volume - unloaded.get(b.id, 0), 0.0)
            for b in inst.barges if b.id not in plan.v_unused}
    mis = {t: max(d - sum(plan.y_out.get((k.id, t), 0.0) for k in inst.tanks), 0.0)
           for t, d in derive_sets(inst).demand_by_day.items() if t not in plan.mis}
    return replace(plan, v_unused={**plan.v_unused, **left}, mis={**plan.mis, **mis})


@dataclass(frozen=True)
class FeasViolation:
    tag: str
    index: tuple
    magnitude: float


def unload_count_violations(inst: Instance, unload_days: dict[str, list[int]]
                            ) -> tuple[dict[str, FeasViolation], list[FeasViolation]]:
    """The unload-count rules, which ``extract_flow_plan`` checks too: the
    ``barge_unload_limit`` violation of each barge over its limit, by barge
    id, and the ``daily_unload_limit`` violations, in day order."""
    per_barge = {}
    for b in inst.barges:
        n, limit = len(unload_days.get(b.id, ())), inst.barge_max_unloads(b)
        if n > limit:
            per_barge[b.id] = FeasViolation("barge_unload_limit", (b.id,), n - limit)
    per_day = Counter(t for days in unload_days.values() for t in days)
    limit = inst.ops.max_unloads_per_day
    return per_barge, [FeasViolation("daily_unload_limit", (t,), n - limit)
                       for t, n in sorted(per_day.items()) if n > limit]


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
        """The report as JSON-ready data; a non-finite magnitude, which JSON
        cannot hold, is None."""
        return {
            "ok": self.ok,
            "counts": self.counts(),
            "worst_spec_violation": self.worst_spec_violation,
            "violations": [{"tag": v.tag, "index": list(v.index),
                            "magnitude": v.magnitude if math.isfinite(v.magnitude) else None}
                           for v in self.violations],
        }


def audit(inst: Instance, trace: SimulationTrace, plan: FlowPlan) -> FeasibilityReport:
    """Check a simulated plan against the original (un-buffered) rules."""
    rep = FeasibilityReport()
    add = rep.violations.append
    ds = derive_sets(inst)
    plan = _stated(inst, plan)
    H = trace.horizon
    allowed = {b.id: set(b.allowed_tanks) for b in inst.barges}
    windows = {b.id: b.window for b in inst.barges}

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
    unloaded = plan.unloaded_totals()
    unload_days = plan.unload_days()
    over_barge, over_day = unload_count_violations(inst, unload_days)
    for b in inst.barges:
        s = b.id
        total = unloaded.get(s, 0)
        slack = plan.v_unused[s]
        if abs(total + slack - b.volume) > VOL_TOL or slack < -VOL_TOL:
            add(FeasViolation("supply_total", (s,), max(abs(total + slack - b.volume), -slack)))
        if s in over_barge:
            add(over_barge[s])
        days = unload_days.get(s, [])
        if days and days[-1] - days[0] > inst.ops.max_unload_gap:
            add(FeasViolation("unload_gap", (s,), days[-1] - days[0] - inst.ops.max_unload_gap))
        for t in days:
            pulled = sum(plan.y_in.get((s, k, t), 0.0) for k in b.allowed_tanks)
            need = inst.barge_min_unload_pct(b) * b.volume
            if pulled < need - VOL_TOL:
                add(FeasViolation("unload_min_pct", (s, t), need - pulled))

    rep.violations += over_day

    # demand balance, feed shares, constant feed, spec and ratio bounds
    for r in inst.runs:
        d = r.daily_demand
        for t in range(r.days[0], r.days[1] + 1):
            served = trace.feed_volume.get(t, 0.0)
            mis = plan.mis[t]
            if abs(served + mis - d) > VOL_TOL or mis < -VOL_TOL:
                add(FeasViolation("demand_balance", (t,), max(abs(served + mis - d), -mis)))
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
                    # judged by the model's rows, the denominator multiplied
                    # through, so 0/0 holds; the magnitude is in ratio units,
                    # +inf for q1 fed with no q2 (den 0 breaks only the upper row)
                    num = trace.feed_spec[(q1, t)] * served
                    den = trace.feed_spec[(q2, t)] * served
                    if num < lo * den - SPEC_TOL * served:
                        add(FeasViolation("feed_ratio_lb", (q1, q2, t), (lo * den - num) / den))
                    if num > hi * den + SPEC_TOL * served:
                        add(FeasViolation("feed_ratio_ub", (q1, q2, t),
                                          (num - hi * den) / den if den > 0.0 else math.inf))

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
    that the plan fails to capture.  An entry naming an id the instance
    lacks is a plan inconsistency, as in ``simulate``."""
    ds = derive_sets(inst)
    target = ds.value_target
    if target == 0.0:
        raise ValueError("instance has zero attainable value")
    _check_ids(inst, plan)
    plan = _stated(inst, plan)
    missed = sum(b.unload_penalty * plan.v_unused[b.id] for b in inst.barges)
    missed += sum(ds.miss_penalty_by_day[t] * plan.mis[t] for t in ds.demand_days)
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
    unload event targets a single tank.  Candidates go best-first, by
    missed value summed as ``loss`` sums it (barges, then demand days), and
    the first plan that simulates and audits clean gives the result, the
    all-miss plan's value when none does; so the result is attained by a
    plan feasible for the original rules.  A halved step can only improve.

    A candidate pairs one of the U unload choices (every barge's events)
    with one of the F feed choices (every run's tank shares).  The two
    lists, each sorted by its share of the missed value, merge through a
    heap of at most U pairs, ties in enumeration order, and a plan is built
    only for a pair the walk reaches: memory grows as U + F, and time as
    U log U + F log F plus, for each pair tried, a log U heap step and one
    simulate and audit.
    """
    if len(inst.barges) > 2 or len(inst.tanks) > 2 or inst.horizon > 6:
        raise ValueError("grid_oracle is limited to <=2 barges, <=2 tanks, horizon <=6")
    if not (0.0 < grid_step <= 1.0):
        raise ValueError("grid_step must be in (0, 1]")
    ds = derive_sets(inst)      # validates
    levels = [round(j * grid_step, 12) for j in range(1, int(round(1.0 / grid_step)) + 1)]

    barge_choices = []
    for b in inst.barges:
        opts: list[list[tuple[int, str, float]]] = [[]]  # (day, tank, fraction)
        days_avail = range(b.window[0], b.window[1] + 1)
        limit = inst.barge_max_unloads(b)
        p_min = inst.barge_min_unload_pct(b)
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

    tank_ids = [t.id for t in inst.tanks]

    def unused(b, ev) -> float:     # the barge volume its events leave
        used = 0.0
        for _, _, fr in ev:
            used += fr * b.volume
        return b.volume - used

    unloads = []    # (barge share of the missed value, enumeration index, events)
    for i, events in enumerate(itertools.product(*(opts for _, opts in barge_choices))):
        day_counts: dict[int, int] = {}
        ok = True
        for ev in events:
            for t, _, _ in ev:
                day_counts[t] = day_counts.get(t, 0) + 1
                if day_counts[t] > inst.ops.max_unloads_per_day:
                    ok = False
        if not ok:
            continue
        unloads.append((sum(b.unload_penalty * unused(b, ev) for b, ev in zip(inst.barges, events)),
                        i, events))

    def missed(feed) -> list[float]:    # each run's daily demand its shares leave
        return [r.daily_demand * (1.0 - sum(shares)) for r, shares in zip(runs, feed)]

    run_of = {t: i for i, r in enumerate(runs) for t in range(r.days[0], r.days[1] + 1)}
    feeds = []      # (demand share of the missed value, enumeration index, per-run shares)
    for j, feed in enumerate(itertools.product(*feed_choices_per_run)):
        mis = missed(feed)
        feeds.append((sum(ds.miss_penalty_by_day[t] * mis[run_of[t]] for t in ds.demand_days),
                      j, feed))
    unloads.sort()
    feeds.sort()

    # The pairs (a, b) of sorted positions, best-first.  A pair never sums
    # less than (a, b - 1) or (a - 1, b), as rounding is monotone, so the heap
    # holds the next pair of each unload reached so far, and unload a + 1
    # enters when (a, 0) leaves.  Sorting the product broke a tie of sums by
    # enumeration index, and a smaller share can round to the same sum as a
    # larger one listed before it: so every pair of the least sum leaves the
    # heap before the tied pairs go, in index order.
    heap = [(unloads[0][0] + feeds[0][0], 0, 0)]
    while heap:
        least = heap[0][0]
        tied = []   # (unload index, feed index, unload position, feed position)
        while heap and heap[0][0] == least:
            _, a, b = heapq.heappop(heap)
            tied.append((unloads[a][1], feeds[b][1], a, b))
            if b + 1 < len(feeds):
                heapq.heappush(heap, (unloads[a][0] + feeds[b + 1][0], a, b + 1))
            if b == 0 and a + 1 < len(unloads):
                heapq.heappush(heap, (unloads[a + 1][0] + feeds[0][0], a + 1, 0))
        for _, _, a, b in sorted(tied):
            plan = FlowPlan()
            for barge, ev in zip(inst.barges, unloads[a][2]):
                for t, k, fr in ev:
                    key = (barge.id, k, t)
                    plan.y_in[key] = plan.y_in.get(key, 0.0) + fr * barge.volume
                    plan.gamma[(barge.id, t)] = 1
                plan.v_unused[barge.id] = unused(barge, ev)
            feed = feeds[b][2]
            for r, shares, mis in zip(runs, feed, missed(feed)):
                for t in range(r.days[0], r.days[1] + 1):
                    for k, c in zip(tank_ids, shares):
                        if c > 0.0:
                            plan.y_out[(k, t)] = c * r.daily_demand
                            plan.sigma[(k, t)] = 1
                    plan.mis[t] = mis
            try:
                trace = simulate(inst, plan)
            except PlanInconsistencyError:
                continue
            if audit(inst, trace, plan).ok:
                return plan_objective(inst, plan)
    return plan_objective(inst, empty_plan(inst))   # the all-miss plan is always feasible
