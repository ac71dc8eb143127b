"""Rolling-horizon schemes: period generation and the shared step loop.

Periods partition the day grid by one rule, ``run_based_periods``: period
boundaries fall on the ends of demand runs and of the gaps between them,
so neither is ever subdivided.  ``fixed_periods`` is that rule with no
runs: equal blocks.

Each step splits the days into four segments: the *past* before the
present, the *present* block of ``n_present`` periods, the *near future*
up to ``t_nf`` and the *far future* beyond it.  Past binaries are fixed:
earlier steps decided them.  The table ``SEGMENT_POLICY`` is the one place
where the state of each dated binary kind (``gamma``, ``sigma``,
``alpha``) in the present, the near future and the far future is defined:
active (binary) or relaxed (continuous on [0, 1]).  The step loop both
schemes share applies it and has no rule of its own.  Continuous variables
are not in the table and stay free throughout.

* ``roll_full``    -- builds the whole-horizon model once and solves it at
  every step.  After each step the binaries of the days it steps over are
  fixed in place, so every model has a past, a present, a near and a far
  future.  Every step takes ``solve``'s first try; its starts keep the
  fixed past.
* ``roll_partial`` -- every step builds and solves a sub-instance of
  [present start, ``t_nf``] only, so its model has no past and no far
  future: the scheme omits them by building that sub-instance, not through
  the table.  The past enters as state: the accumulated plan is simulated
  and the resulting tank state seeds a shifted sub-instance; barge volumes
  and unload counts are decremented, and a barge whose window is only
  partly visible is asked to unload the visible fraction of its volume
  only.  No step fixes a binary.  Each step takes ``solve``'s first try
  from its own flow relaxation; on the sample every step ends there.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace

from .instance import Instance
from .model import MilpModel
from .simulate import PLAN_FIELDS, FlowPlan, _stated, plan_objective, simulate
from .solve import SolveOptions, extract_flow_plan, round_binary, solve

# Seconds every step is given at least; a budget left below it ends the roll.
MIN_STEP_TIME = 2.0


class RollingError(RuntimeError):
    pass


@dataclass(frozen=True)
class Period:
    start: int
    end: int              # exclusive

    def __len__(self) -> int:
        return self.end - self.start


def fixed_periods(horizon: int, dt: int) -> list[Period]:
    """Equal-length periods; the last one is truncated at the horizon."""
    return run_based_periods((), horizon, dt)


def run_based_periods(runs, horizon: int, dt: int) -> list[Period]:
    """Periods that never subdivide a run or a gap between runs.

    The segment ends are the day before each run, each run's last day and
    the horizon's last day.  A period ends at the furthest segment end
    within ``dt`` days of its start; if there is none, at the next segment
    end.  With no runs a period ends after ``dt`` days: fixed-length
    stepping.
    """
    if dt < 1:
        raise ValueError("dt must be >= 1")
    intervals = sorted(tuple(getattr(r, "days", r)) for r in runs)   # Run or (first, last)
    for (a0, a1), (b0, b1) in zip(intervals, intervals[1:]):
        if b0 <= a1:
            raise ValueError("runs overlap")
    ends = {e for r0, r1 in intervals for e in (r0 - 1, r1)}
    if intervals:
        ends.add(horizon - 1)
    periods: list[Period] = []
    t = 0
    while t < horizon:
        later = [e for e in ends if e >= t]
        within = [e for e in later if e <= t + dt]
        end = max(within) if within else min(later, default=t + dt - 1)
        periods.append(Period(t, min(end + 1, horizon)))
        t = periods[-1].end
    return periods


def check_step_starts(runs, periods: list[Period], n_step: int) -> None:
    """Raise ``RollingError`` if a partial-scheme step, which starts at
    ``periods[i].start`` for every ``n_step``-th ``i``, would split a run."""
    for p in periods[::n_step]:
        for r in runs:
            if r.days[0] < p.start <= r.days[1]:
                raise RollingError(f"step boundary {p.start} splits run {r.id}; use run-based "
                                   "periods with the partial scheme")


def check_partition(periods: list[Period], horizon: int) -> bool:
    if not periods:
        return horizon == 0
    if periods[0].start != 0 or periods[-1].end != horizon:
        return False
    return all(a.end == b.start for a, b in zip(periods, periods[1:]))


# ---------------------------------------------------------------------------
# Segment policy: which dated binaries stay binary and which are relaxed

# Dated binary kind -> its state in the present, the near future and the
# far future of a step.
SEGMENT_POLICY = {
    "gamma": ("active", "active", "relaxed"),
    "sigma": ("active", "relaxed", "relaxed"),
    "alpha": ("active", "relaxed", "relaxed"),
}


@dataclass(frozen=True)
class RollParams:
    h_nf: int = 90            # near-future horizon, days
    n_present: int = 1        # periods fully binary per step
    n_step: int = 1           # periods frozen per step
    solve: SolveOptions = field(default_factory=lambda: SolveOptions(time_limit=1800.0))

    def __post_init__(self):
        if not (1 <= self.n_step <= self.n_present):
            raise ValueError("need 1 <= n_step <= n_present")
        if self.h_nf < 1:
            raise ValueError("h_nf must be >= 1")
        if self.solve.time_limit < MIN_STEP_TIME:
            # no step could start: the budget check would end the roll at once
            raise ValueError(f"solve.time_limit must be >= {MIN_STEP_TIME} s (MIN_STEP_TIME), "
                             f"got {self.solve.time_limit}")


@dataclass
class StepLog:
    step: int
    window: tuple[int, int]    # present [start, end)
    t_nf: int
    status: str
    objective: float | None
    bound: float | None
    wall_time: float
    n_binary: int              # integer columns, fixed past binaries included
    nodes: int
    start: str | None          # where the solve's start came from

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "wall_time": round(self.wall_time, 4)})


@dataclass
class RollResult:
    plan: FlowPlan
    steps: list[StepLog]
    objective: float           # true value of the final plan


def _step_budget(params: RollParams, spent: float, steps_left: int) -> float:
    remaining = params.solve.time_limit - spent
    if remaining < MIN_STEP_TIME:
        raise RollingError(f"time budget exhausted with {steps_left} steps left")
    return max(MIN_STEP_TIME, remaining / max(steps_left, 1))


def _apply_policy(model: MilpModel, window: tuple[int, int, int], offset: int,
                  step: int) -> None:
    """Give each dated binary the state ``SEGMENT_POLICY`` prescribes for
    its segment of ``window`` (present start, present end, ``t_nf``):
    active (binary on [0, 1]) or relaxed (continuous on [0, 1]).  One in
    the past must already be fixed by an earlier step's commit.  The state
    is set outright, whatever an earlier step left, so one model can serve
    every step.  ``offset`` maps the model's days onto the full horizon (a
    partial-scheme sub-model starts at the present)."""
    t_start, present_end, t_nf = window
    for v in model.vars:
        # a relaxed binary of a tabled kind is still one of the step's binaries
        if v.day is None or not (v.binary or v.kind in SEGMENT_POLICY):
            continue
        if v.kind not in SEGMENT_POLICY:
            raise KeyError(f"segment policy has no treatment for variable kind {v.kind!r}")
        day = v.day + offset
        if day < t_start:
            if v.lo != v.hi:
                raise RollingError(f"{v.name} lies in the past but is not fixed at step {step}")
            continue
        present, near, far = SEGMENT_POLICY[v.kind]
        state = present if day < present_end else near if day <= t_nf else far
        v.binary = state == "active"
        v.lo, v.hi = 0.0, 1.0


def _roll(inst: Instance, periods: list[Period], params: RollParams, build, commit,
          log_path, on_step):
    """The step loop of both schemes.

    ``build(t_start, t_nf)`` returns the step's model and the offset of its
    days on the full horizon; ``SEGMENT_POLICY`` then sets each dated
    binary's state.  After the solve the step is logged and passed to
    ``on_step``, and then ``commit(model, res, offset, next_start)`` keeps
    what the step decided for the days before ``next_start``.  Returns the
    step logs and the last model and result.
    """
    H = inst.horizon
    if not check_partition(periods, H):
        raise ValueError("periods must partition the horizon")
    steps: list[StepLog] = []
    model = res = None
    t_begin = time.perf_counter()
    with open(log_path, "w") if log_path else contextlib.nullcontext() as logf:
        for step, i in enumerate(range(0, len(periods), params.n_step)):
            present = periods[i:i + params.n_present]
            t_start = present[0].start
            present_end = present[-1].end
            t_nf = max(min(H - 1, t_start + params.h_nf - 1), present_end - 1)
            model, offset = build(t_start, t_nf)
            _apply_policy(model, (t_start, present_end, t_nf), offset, step)
            steps_left = math.ceil((len(periods) - i) / params.n_step)
            opts = replace(params.solve,
                           time_limit=_step_budget(params, time.perf_counter() - t_begin, steps_left))
            res = solve(model, opts)
            if not res.has_values:
                raise RollingError(f"step {step}: solver returned {res.status}: {res.message}")
            entry = StepLog(step, (t_start, present_end), t_nf, res.status,
                            res.objective, res.best_bound, res.wall_time, model.n_binary,
                            res.nodes, res.start)
            steps.append(entry)
            if logf:
                logf.write(entry.to_json() + "\n")
            if on_step is not None:
                on_step(step, model, res)
            next_start = periods[i + params.n_step].start if i + params.n_step < len(periods) else H
            commit(model, res, offset, next_start)
    return steps, model, res


def roll_full(inst: Instance, periods: list[Period], params: RollParams, builder,
              log_path=None, on_step=None) -> RollResult:
    """Full-horizon scheme: ``builder(inst)`` is called once, and every
    step solves that whole-horizon model with its past binaries fixed and
    the others kept binary or relaxed per ``SEGMENT_POLICY``.  After each
    step the binaries of the days it steps over are fixed in place,
    rounded by ``round_binary``, the rule ``extract_flow_plan`` reads
    binary plan fields by.

    Every step takes ``solve``'s first try from the model's flow
    relaxation, which keeps the fixed past; the digits of every start, flow
    or all-miss, keep the past's digits too, so each start agrees with what
    earlier steps committed.  On the sample every step ends in its first
    try.

    ``on_step(step, model, result)`` is called after each solve, before the
    step's binaries are fixed: it sees the model as the solver saw it.
    """
    model = builder(inst)

    def commit(model, res, offset, next_start):
        for v in model.vars:
            if v.kind in SEGMENT_POLICY and v.day < next_start:
                model.fix(v, round_binary(res.values[v.col]))

    steps, model, res = _roll(inst, periods, params, lambda t_start, t_nf: (model, 0),
                              commit, log_path, on_step)
    plan = extract_flow_plan(model, res)
    return RollResult(plan, steps, plan_objective(inst, plan))


# ---------------------------------------------------------------------------
# Partial-horizon scheme


def _visible_sub_instance(inst: Instance, acc: FlowPlan, t_start: int, t_nf: int):
    """Shifted instance covering [t_start, t_nf] with the simulated state at
    t_start as initial conditions and per-barge remainders decremented by
    ``acc``, the plan of the days before t_start; no run straddles t_start
    (see ``check_step_starts``)."""
    if t_start > 0:
        trace = simulate(inst, acc, through_day=t_start)
        # clamp away float dust so the sub-instance revalidates cleanly
        tanks = tuple(replace(
            k, v_init=min(max(trace.v_end[(k.id, t_start - 1)], k.v_min), k.v_max),
            specs_init={q: max(trace.f[(k.id, q, t_start - 1)], 0.0)
                        for q in inst.spec_ids()},
        ) for k in inst.tanks)
    else:
        tanks = inst.tanks

    barges = []
    unload_days, unloaded = acc.unload_days(), acc.unloaded_totals()
    for b in inst.barges:
        used_days = unload_days.get(b.id, [])
        used_vol = unloaded.get(b.id, 0)
        n_left = inst.barge_max_unloads(b) - len(used_days)
        w0, w1 = b.window
        if used_days:
            w1 = min(w1, used_days[0] + inst.ops.max_unload_gap)
        vis0, vis1 = max(w0, t_start), min(w1, t_nf)
        if n_left <= 0 or vis0 > vis1:
            continue
        window_len = b.window[1] - b.window[0] + 1
        seen = max(0, min(b.window[1], t_nf) - b.window[0] + 1)
        required = b.volume * (seen / window_len)
        vol = min(b.volume - used_vol, max(required - used_vol, 0.0))
        if vol <= 1e-9:
            continue
        min_pct = inst.barge_min_unload_pct(b) * b.volume / vol
        barges.append(replace(
            b, volume=vol, window=(vis0 - t_start, vis1 - t_start),
            max_unloads=n_left, min_unload_pct=min(min_pct, 1.0),
        ))

    runs = []
    for r in inst.runs:
        r0, r1 = r.days
        if r1 < t_start or r0 > t_nf:
            continue
        runs.append(replace(r, days=(r0 - t_start, min(r1, t_nf) - t_start)))

    ops = replace(inst.ops, horizon=t_nf - t_start + 1)
    return replace(inst, tanks=tanks, barges=tuple(barges), runs=tuple(runs), ops=ops)


def roll_partial(inst: Instance, periods: list[Period], params: RollParams, builder,
                 log_path=None, on_step=None) -> RollResult:
    """Partial-horizon scheme: solve only the visible window, freeze all of
    it that falls in the stepped-over periods, re-simulate, repeat.  Raises
    ``RollingError`` before the first build if a step would split a run."""
    check_step_starts(inst.runs, periods, params.n_step)
    acc = FlowPlan()

    def build(t_start, t_nf):
        return builder(_visible_sub_instance(inst, acc, t_start, t_nf)), t_start

    def commit(model, res, offset, next_start):
        sub_plan = extract_flow_plan(model, res)
        # every field but the slacks is dated: the day is its key's last part
        for name in [name for name, fld in PLAN_FIELDS.items() if fld.read != "slack"]:
            kept = getattr(acc, name)
            for key, v in getattr(sub_plan, name).items():
                if key[-1] + offset < next_start and v > 0.0:
                    kept[key[:-1] + (key[-1] + offset,)] = v

    steps, _, _ = _roll(inst, periods, params, build, commit, log_path, on_step)
    plan = _stated(inst, acc)
    return RollResult(plan, steps, plan_objective(inst, plan))
