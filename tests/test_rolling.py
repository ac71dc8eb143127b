"""Period generators, the segment policy, and the two rolling schemes."""

import re
import sys
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blendplan
from blendplan.builders import (build_center, build_exact_mix, build_exact_split,
                                build_mccormick, make_plans)
import blendplan.instance
from blendplan.instance import extend_periodic
from blendplan.model import BINARY_KINDS, MilpModel, VarRef
import blendplan.rolling
from blendplan.rolling import (SEGMENT_POLICY, Period, RollParams, RollingError,
                               StepLog, _apply_policy, _visible_sub_instance,
                               check_partition, fixed_periods, roll_full,
                               roll_partial, run_based_periods)
from blendplan.simulate import FlowPlan, audit, grid_oracle, loss, plan_objective, simulate
from blendplan.solve import SolveOptions, SolveResult, extract_flow_plan, solve
from conftest import rolling_instance, small_instance, tiny_instance, toy_1t1s

FIG6_RUNS = [(0, 3), (5, 5), (7, 13), (18, 24), (25, 29)]


def spans(periods):
    return [(p.start, p.end) for p in periods]


def test_fixed_periods_truncates_last():
    periods = fixed_periods(30, 4)
    assert len(periods) == 8
    assert spans(periods)[:2] == [(0, 4), (4, 8)]
    assert spans(periods)[-1] == (28, 30)
    assert len(periods[-1]) == 2


def test_fixed_periods_single():
    assert spans(fixed_periods(7, 7)) == [(0, 7)]
    assert spans(fixed_periods(7, 10)) == [(0, 7)]


def test_an_empty_period_list_partitions_only_an_empty_horizon():
    assert check_partition([], 0) and not check_partition([], 3)


def test_run_based_reference_layout():
    periods = run_based_periods(FIG6_RUNS, 30, 7)
    assert spans(periods) == [(0, 7), (7, 14), (14, 18), (18, 25), (25, 30)]


def test_run_based_single_covering_run():
    assert spans(run_based_periods([(0, 29)], 30, 7)) == [(0, 30)]


def test_run_based_no_runs_matches_fixed():
    assert spans(run_based_periods([], 30, 4)) == spans(fixed_periods(30, 4))


def test_run_based_refuses_overlapping_runs():
    with pytest.raises(ValueError, match="runs overlap"):
        run_based_periods([(0, 5), (5, 9)], 30, 7)


def test_run_based_accepts_run_objects():
    base = toy_1t1s()
    runs = [replace(base.runs[0], id=f"r{i}", days=d) for i, d in enumerate(FIG6_RUNS)]
    assert spans(run_based_periods(runs, 30, 7)) == spans(run_based_periods(FIG6_RUNS, 30, 7))


def test_run_based_never_splits_a_run():
    cases = [
        ([(2, 4), (6, 10), (13, 13)], 16, 3),
        ([(0, 1), (4, 9), (11, 14)], 20, 5),
        (FIG6_RUNS, 30, 4),
    ]
    for runs, H, dt in cases:
        periods = run_based_periods(runs, H, dt)
        assert check_partition(periods, H)
        bounds = {p.start for p in periods}
        for (r0, r1) in runs:
            for b in bounds:
                assert not (r0 < b <= r1), (runs, H, dt, spans(periods))


@settings(max_examples=120, deadline=None)
@given(h=st.integers(1, 60), dt=st.integers(1, 12), data=st.data())
def test_partition_property(h, dt, data):
    assert check_partition(fixed_periods(h, dt), h)
    n_runs = data.draw(st.integers(0, 4))
    runs = []
    cursor = 0
    for _ in range(n_runs):
        if cursor > h - 1:
            break
        start = data.draw(st.integers(cursor, h - 1))
        end = data.draw(st.integers(start, min(start + 6, h - 1)))
        runs.append((start, end))
        cursor = end + 2
    periods = run_based_periods(runs, h, dt)
    assert check_partition(periods, h)
    assert all(len(p) >= 1 for p in periods)
    if runs:    # a period starts only where a run or a gap does
        assert {p.start for p in periods[1:]} <= {d for r0, r1 in runs for d in (r0, r1 + 1)}


@settings(max_examples=200, deadline=None)
@given(h=st.integers(0, 400), dt=st.integers(1, 40))
def test_fixed_periods_are_run_based_periods_without_runs(h, dt):
    blocks = [Period(s, min(s + dt, h)) for s in range(0, h, dt)]
    assert fixed_periods(h, dt) == run_based_periods((), h, dt) == blocks


def test_policy_tables():
    assert SEGMENT_POLICY == {
        "gamma": ("active", "active", "relaxed"),
        "sigma": ("active", "relaxed", "relaxed"),
        "alpha": ("active", "relaxed", "relaxed"),
    }
    # a solve's held run fixes the started columns of these kinds
    assert tuple(SEGMENT_POLICY) == BINARY_KINDS


def test_dated_binary_of_an_untabled_kind_is_rejected():
    m = MilpModel("t")
    m.add_var("gamma", ("B1", 0), 0.0, 1.0, binary=True)
    m.add_var("y_out", ("T1", 0), 0.0, 1.0, binary=True)
    with pytest.raises(KeyError, match="no treatment for variable kind 'y_out'"):
        _apply_policy(m, (0, 1, 1), 0, 0)


def test_past_binaries_must_already_be_fixed():
    m = MilpModel("t")
    fixed = m.add_var("gamma", ("B1", 0), 0.0, 1.0, binary=True)
    m.fix(fixed, 1.0)
    ahead = m.add_var("sigma", ("T1", 2), 0.0, 1.0, binary=True)
    _apply_policy(m, (1, 2, 2), 0, 3)
    assert (fixed.lo, fixed.hi, fixed.binary) == (1.0, 1.0, True)
    assert not ahead.binary    # sigma is relaxed in the near future
    free = m.add_var("alpha", ("T1", "P", 0, 0), 0.0, 1.0, binary=True)
    with pytest.raises(RollingError, match=re.escape(f"{free.name} lies in the past")):
        _apply_policy(m, (1, 2, 2), 0, 3)


def test_step_log_line_layout():
    line = StepLog(3, (6, 14), 29, "optimal", 1.5, None, 0.123456789, 104, 0,
                   "all-miss").to_json()
    assert line == ('{"step": 3, "window": [6, 14], "t_nf": 29, "status": "optimal", '
                    '"objective": 1.5, "bound": null, "wall_time": 0.1235, "n_binary": 104, '
                    '"nodes": 0, "start": "all-miss"}')


def _builder(eps=1.0):
    return lambda inst: build_center(inst, make_plans(inst, eps))


@pytest.mark.parametrize("run", ["flat", "full", "partial"])
def test_solving_builds_no_column_names(monkeypatch, run):
    # a solve hands back its column vector: from the build to the plan, no
    # column name is formatted, flat or rolling
    inst = rolling_instance(0, reps=2)
    periods = run_based_periods(inst.runs, inst.horizon, 7)
    params = RollParams(h_nf=30, solve=SolveOptions(mip_gap=0.005, time_limit=600))

    def refuse(ref):
        raise AssertionError(f"column name of {ref.kind}{ref.index} formatted")

    monkeypatch.setattr(VarRef, "name", property(refuse))
    if run == "flat":
        m = _builder()(inst)
        plan = extract_flow_plan(m, solve(m, params.solve))
    else:
        plan = (roll_full if run == "full" else roll_partial)(inst, periods, params,
                                                              _builder()).plan
    assert audit(inst, simulate(inst, plan), plan).ok


@pytest.mark.parametrize("run", ["builds", "flat", "full", "partial", "oracle"])
def test_model_path_looks_up_no_barge_by_id(monkeypatch, sample, run):
    # every caller holds the Barge it asks about: no id is scanned for, in a
    # build, a solve, a roll's sub-instances or the oracle
    def refuse(items, item_id):
        raise AssertionError(f"{item_id} looked up by id")

    monkeypatch.setattr(blendplan.instance, "_by_id", refuse)
    params = RollParams(h_nf=30, solve=SolveOptions(mip_gap=0.005, time_limit=600))
    if run == "builds":
        plans = make_plans(sample, 1.0)
        for m in (build_center(sample, plans), build_mccormick(sample, plans),
                  build_exact_mix(sample), build_exact_split(sample)):
            assert m.n_rows > 0
    elif run == "oracle":
        assert grid_oracle(tiny_instance(1)) > 0.0
    else:
        inst = sample if run == "flat" else rolling_instance(0, reps=2)
        if run == "flat":
            m = _builder()(inst)
            plan = extract_flow_plan(m, solve(m, params.solve))
        else:
            plan = (roll_full if run == "full" else roll_partial)(
                inst, run_based_periods(inst.runs, inst.horizon, 7), params, _builder()).plan
        assert audit(inst, simulate(inst, plan), plan).ok


def test_roll_full_single_period_equals_flat():
    inst = small_instance(10)
    flat_model = _builder()(inst)
    flat = solve(flat_model, SolveOptions(mip_gap=0.0005))
    res = roll_full(inst, fixed_periods(inst.horizon, inst.horizon),
                    RollParams(solve=SolveOptions(mip_gap=0.0005)), _builder())
    assert len(res.steps) == 1
    assert res.steps[-1].objective == pytest.approx(flat.objective, rel=2e-3)


def test_roll_full_monotone_and_frozen_prefix():
    inst = rolling_instance(0, reps=2)   # 30 days
    captured = []

    def grab(step, model, res):
        vals = {v.col: res.values[v.col] for v in model.vars
                if v.kind in ("gamma", "sigma", "alpha")}
        fixed = {v.col for v in model.vars
                 if v.kind in ("gamma", "sigma", "alpha") and v.lo == v.hi}
        captured.append((vals, fixed))

    params = RollParams(h_nf=90, solve=SolveOptions(mip_gap=0.005, time_limit=600))
    res = roll_full(inst, fixed_periods(inst.horizon, 7), params, _builder(),
                    on_step=grab)
    objs = [s.objective for s in res.steps]
    for a, b in zip(objs, objs[1:]):
        assert b <= a / (1 - 0.005) + 1e-6
    # once fixed, a binary keeps its value in every later step
    for i, (vals_i, fixed_i) in enumerate(captured):
        for j in range(i + 1, len(captured)):
            vals_j, fixed_j = captured[j]
            for col in fixed_i:
                assert col in fixed_j
                assert vals_j[col] == pytest.approx(vals_i[col], abs=1e-9)
    # all steps recorded and plan well-formed
    assert len(res.steps) >= 4
    from blendplan.simulate import audit
    assert audit(inst, simulate(inst, res.plan), res.plan).ok


def _counting(builder):
    calls = []

    def build(inst):
        calls.append(inst.horizon)
        return builder(inst)
    return build, calls


def _on_days(days_by_key):
    """Rows ``[key, day, 0 or 1]`` over each key's days, 1 on the days in ``on``."""
    return [[key, t, int(t in on)] for key, (days, on) in sorted(days_by_key.items())
            for t in days]


# The sample under the benchmark's roll30_full settings: per step the present
# window, t_nf, status, objective, bound, integer columns, nodes and start,
# then the plan.
ROLL30_FULL_STEPS = [
    ((0, 6), 29, "optimal", 23143600.0, 23143600.0, 104, 1, "flow"),
    ((6, 14), 29, "optimal", 23143600.0, 23143600.0, 194, 1, "flow"),
    ((14, 22), 29, "optimal", 23143600.0, 23143600.0, 290, 1, "flow"),
    ((22, 30), 29, "optimal", 23143600.0, 23143600.0, 380, 1, "flow"),
]
_DEMAND_DAYS = [*range(0, 5), *range(6, 12), *range(14, 22), *range(24, 30)]
ROLL30_FULL_PLAN = {
    "schema": "blendplan-plan/1",
    "y_in": [["B1", "T1", 5, 236.99999999999653], ["B1", "T2", 5, 1003.0000000000034],
             ["B2", "T2", 12, 803.8245614035111], ["B2", "T3", 12, 556.1754385964889],
             ["B3", "T1", 19, 840.0], ["B3", "T3", 19, 342.0], ["B4", "T1", 27, 840.0],
             ["B4", "T2", 27, 520.0]],
    "y_out": [[k, t, v] for k, runs in (
        ("T1", ((range(0, 5), 72.39999999999999), (range(6, 12), 39.4999999999994),
                (range(24, 30), 280.0))),
        ("T2", ((range(0, 5), 177.59999999999994), (range(6, 12), 205.82631578947402),
                (range(14, 22), 65.73333333333382))),
        ("T3", ((range(6, 12), 54.673684210526574), (range(14, 22), 114.26666666666621))),
    ) for days, v in runs for t in days],
    "gamma": _on_days({"B1": (range(0, 7), {5}), "B2": (range(4, 13), {12}),
                       "B3": (range(11, 20), {19}), "B4": (range(18, 28), {27})}),
    "sigma": _on_days({"T1": (_DEMAND_DAYS, {*range(0, 5), *range(6, 12), *range(24, 30)}),
                       "T2": (_DEMAND_DAYS, {*range(0, 5), *range(6, 12), *range(14, 22)}),
                       "T3": (_DEMAND_DAYS, {*range(6, 12), *range(14, 22)})}),
    "v_unused": {"B1": 0.0, "B2": 0.0, "B3": 0.0, "B4": 0.0},
    "mis": [[t, 0.0] for t in _DEMAND_DAYS],
}


def _approx(data):
    if isinstance(data, float):
        return pytest.approx(data, rel=1e-9, abs=1e-9)
    if isinstance(data, dict):
        return {k: _approx(v) for k, v in data.items()}
    if isinstance(data, list):
        return [_approx(v) for v in data]
    return data


def test_sample_full_roll_is_pinned_and_builds_once(sample):
    build, calls = _counting(_builder())
    params = RollParams(h_nf=30, solve=SolveOptions(mip_gap=0.005, time_limit=600))
    res = roll_full(sample, run_based_periods(sample.runs, sample.horizon, 7), params, build)
    assert calls == [30]
    got = [(s.window, s.t_nf, s.status, s.objective, s.bound, s.n_binary, s.nodes, s.start)
           for s in res.steps]
    assert got == ROLL30_FULL_STEPS
    assert res.plan.to_dict() == _approx(ROLL30_FULL_PLAN)


# The sample extended to 45 days under the benchmark's roll45_partial
# settings: per step the present window, t_nf, status, objective, bound,
# integer columns, nodes and start, then the plan.  The partial plan keeps
# only what each step committed, so its binaries list the days that are on.
ROLL45_PARTIAL_STEPS = [
    ((0, 6), 29, "optimal", 23143600.0, 23143600.0, 104, 1, "flow"),
    ((6, 14), 35, "optimal", 23208234.92063492, 23208234.92063492, 124, 1, "flow"),
    ((14, 22), 43, "optimal", 23143600.0, 23143600.0, 128, 1, "flow"),
    ((22, 30), 44, "optimal", 17878000.0, 17878000.0, 96, 1, "flow"),
    ((30, 36), 44, "optimal", 11478000.0, 11478000.0, 55, 1, "flow"),
    ((36, 42), 44, "optimal", 6239120.0, 6239120.000000001, 30, 1, "flow"),
    ((42, 45), 44, "optimal", 0.0, 0.0, 0, 0, None),
]
_RUNS_45 = (range(0, 5), range(6, 12), range(14, 22), range(24, 30), range(30, 35),
            range(36, 42))
_ON_45 = {"T1": (0, 2, 3, 5), "T2": (0, 1, 2, 4), "T3": (1, 3, 4, 5)}
ROLL45_PARTIAL_PLAN = {
    "schema": "blendplan-plan/1",
    "y_in": [["B1", "T1", 5, 236.99999999999363], ["B1", "T2", 5, 1003.0000000000065],
             ["B1#1", "T1", 30, 158.000000000007], ["B1#1", "T1", 31, 256.19999999998873],
             ["B1#1", "T2", 30, 138.80000000000376], ["B1#1", "T2", 31, 687.0000000000005],
             ["B2", "T2", 11, 205.3571428571397], ["B2", "T2", 12, 1147.0000000000066],
             ["B2", "T3", 11, 7.642857142853586], ["B2#1", "T2", 34, 212.99999999999974],
             ["B2#1", "T2", 39, 355.999999999999], ["B2#1", "T3", 34, 98.09999999999911],
             ["B2#1", "T3", 39, 692.900000000002], ["B3", "T1", 19, 842.0000000000102],
             ["B3", "T3", 19, 339.9999999999897], ["B4", "T1", 27, 300.2000000000067],
             ["B4", "T3", 27, 1059.799999999993]],
    "y_out": [[k, t, v] for k, flows in (
        ("T1", (72.39999999999999, 47.39999999999875, 166.66666666667018, 69.03333333333259)),
        ("T2", (177.59999999999994, 241.39285714285776, 132.60000000000122,
                225.00000000000006)),
        ("T3", (58.607142857142286, 113.33333333332993, 25.000000000000007,
                230.9666666666674)),
    ) for run, v in zip(_ON_45[k], flows) for t in _RUNS_45[run]],
    "gamma": [[b, t, 1] for b, t in (
        ("B1", 5), ("B1#1", 30), ("B1#1", 31), ("B2", 11), ("B2", 12), ("B2#1", 34),
        ("B2#1", 39), ("B3", 19), ("B4", 27))],
    "sigma": [[k, t, 1] for k, on in _ON_45.items() for run in on for t in _RUNS_45[run]],
    "v_unused": {"B1": 0.0, "B1#1": 0.0, "B2": 0.0, "B2#1": 0.0, "B3": 0.0,
                 "B4": 4.547473508864641e-13},
    "mis": [[t, m] for days, m in zip(_RUNS_45, (5.684341886080802e-14, 0.0,
                                                 2.842170943040401e-14, 0.0, 0.0, 0.0))
            for t in days],
}


def _spy_first_tries(mp):
    """Record the model and the flow starts of every first try's relaxed
    run; a list of ``(model, starts)``."""
    module = sys.modules[solve.__module__]
    real, tries = module._flow_relaxation, []

    def spy(runs, lp):
        starts = real(runs, lp)
        tries.append((runs.model, starts))
        return starts

    mp.setattr(module, "_flow_relaxation", spy)
    return tries


@pytest.fixture(scope="module")
def roll45():
    """The 45-day roll of the pin below: the instance, the result and each
    step's first try."""
    inst = extend_periodic(blendplan.read_instance(blendplan.sample_instance_path()), 45)
    params = RollParams(h_nf=30, solve=SolveOptions(mip_gap=0.005, time_limit=600))
    with pytest.MonkeyPatch.context() as mp:
        tries = _spy_first_tries(mp)
        res = roll_partial(inst, run_based_periods(inst.runs, inst.horizon, 7), params,
                           _builder())
    return inst, res, tries


def test_sample_partial_roll_is_pinned(roll45):
    _, res, _ = roll45
    got = [(s.window, s.t_nf, s.status, s.objective, s.bound, s.n_binary, s.nodes, s.start)
           for s in res.steps]
    assert got == ROLL45_PARTIAL_STEPS
    assert res.plan.to_dict() == _approx(ROLL45_PARTIAL_PLAN)
    # B1's remainder is float noise below 0; the plan states it as 0, the
    # rule `audit` and `loss` apply to a missing entry
    assert res.plan.v_unused["B1"] == 0.0


def test_sample_partial_roll_ends_every_step_in_its_first_try(roll45):
    inst, res, tries = roll45
    steps = [s for s in res.steps if s.n_binary]
    assert len(steps) == len(tries) == 6
    for s in steps:
        assert s.start == "flow" and s.objective >= s.bound / (1.0 + 0.005)
    assert audit(inst, simulate(inst, res.plan), res.plan).ok
    assert loss(inst, res.plan).pct_loss == pytest.approx(0.0, abs=1e-9)


def test_a_partial_step_flow_start_leaves_relaxed_decisions_free(roll45):
    # the held run fixes every started binary: a relaxed gamma or sigma,
    # which the step does not decide, gets no start; a relaxed digit keeps
    # its start
    relaxed_decisions = relaxed_digits = 0
    for model, starts in roll45[2]:
        relaxed = {v.col for v in model.vars if v.kind in ("gamma", "sigma") and not v.binary}
        active = {v.col for v in model.vars if v.kind in ("gamma", "sigma") and v.binary}
        assert not relaxed & starts.keys() and active <= starts.keys()
        relaxed_decisions += len(relaxed)
        relaxed_digits += sum(1 for col in starts
                              if model.vars[col].kind == "alpha" and not model.vars[col].binary)
    assert relaxed_decisions > 0 and relaxed_digits > 0


def test_every_full_roll_step_takes_the_first_try(monkeypatch):
    # later steps fix the binaries of the days earlier steps stepped over,
    # and still start from their own flow relaxation
    tries = _spy_first_tries(monkeypatch)
    fixed_at_step = []
    inst = small_instance(0)
    res = roll_full(inst, fixed_periods(inst.horizon, 2), RollParams(), _builder(),
                    on_step=lambda step, model, r: fixed_at_step.append(
                        sum(v.lo == v.hi for v in model.vars if v.kind in BINARY_KINDS)))
    assert fixed_at_step[0] == 0 and all(fixed_at_step[1:]) and len(res.steps) == 3
    assert len(tries) == 3 and [s.start for s in res.steps] == ["flow"] * 3


def test_a_full_roll_all_miss_start_keeps_the_fixed_past(sample, monkeypatch):
    # only step 0 gets a flow start; every later step's all-miss start
    # keeps the digits step 0's flow plan fixed, so its held run completes
    # it and no full run follows
    module = sys.modules[solve.__module__]
    real_relaxation, real_result, runs = module._flow_relaxation, module._run_result, []

    def first_only(*args):
        return None if runs else real_relaxation(*args)

    def spy_result(solve_runs, held):
        result = real_result(solve_runs, held)
        runs.append((held, result.status))
        return result

    monkeypatch.setattr(module, "_flow_relaxation", first_only)
    monkeypatch.setattr(module, "_run_result", spy_result)
    params = RollParams(h_nf=30, solve=SolveOptions(mip_gap=0.005, time_limit=600))
    res = roll_full(sample, run_based_periods(sample.runs, sample.horizon, 7), params,
                    _builder())
    assert [s.start for s in res.steps] == ["flow"] + ["all-miss"] * 3
    # step 0: the relaxed run and the flow start's held run; then one held
    # run per step, each ending its solve
    assert [held for held, _ in runs] == [False] + [True] * 4
    assert all(status in ("optimal", "gap_reached") for _, status in runs[1:])
    assert audit(sample, simulate(sample, res.plan), res.plan).ok


def _falls_back_and_is_audited(monkeypatch, roll):
    # the tight window breaks every step's flow plan: each step goes on
    # from the all-miss start
    tries = _spy_first_tries(monkeypatch)
    inst = small_instance(1, tight=True)
    params = RollParams(h_nf=6, solve=SolveOptions(time_limit=60))
    res = roll(inst, run_based_periods(inst.runs, inst.horizon, 2), params, _builder())
    assert len(tries) == len(res.steps) >= 2
    assert all(s.start == "all-miss" and s.status in ("optimal", "gap_reached")
               for s in res.steps)
    assert audit(inst, simulate(inst, res.plan), res.plan).ok
    assert res.objective > 0 and res.objective == pytest.approx(plan_objective(inst, res.plan))


def test_a_partial_roll_whose_first_tries_fall_back_is_audited(monkeypatch):
    _falls_back_and_is_audited(monkeypatch, roll_partial)


def test_a_full_roll_whose_first_tries_fall_back_is_audited(monkeypatch):
    # the all-miss starts of later steps keep the digits earlier steps fixed
    _falls_back_and_is_audited(monkeypatch, roll_full)


def test_roll_partial_state_handoff_matches_simulator():
    inst = rolling_instance(1, reps=2)
    acc = FlowPlan(
        y_in={("B1", "T1", 2): 300.0},
        gamma={("B1", 2): 1},
        y_out={("T1", 1): 100.0, ("T1", 2): 100.0, ("T1", 3): 100.0, ("T1", 4): 100.0},
        sigma={("T1", t): 1 for t in (1, 2, 3, 4)},
    )
    t_start = 7
    sub = _visible_sub_instance(inst, acc, t_start, 20)
    tr = simulate(inst, acc, through_day=t_start)
    for k in inst.tanks:
        sk = sub.tank(k.id)
        assert sk.v_init == tr.v_end[(k.id, t_start - 1)]
        for q in inst.spec_ids():
            assert sk.specs_init[q] == tr.f[(k.id, q, t_start - 1)]


def test_roll_partial_prorates_visible_window():
    inst = rolling_instance(2, reps=2)
    # B2's window is (7, 12); look at a step where only day 7..8 is visible
    sub = _visible_sub_instance(inst, FlowPlan(), 0, 8)
    b2 = sub.barge("B2")
    frac = 2 / 6   # two of six window days visible
    assert b2.volume == pytest.approx(600.0 * frac)
    assert b2.window == (7, 8)
    # the per-day minimum still refers to the original tonnage
    assert b2.min_unload_pct == pytest.approx(min(1.0, 0.10 * 600.0 / b2.volume))
    # fully visible window carries full remaining volume
    sub2 = _visible_sub_instance(inst, FlowPlan(), 0, 14)
    assert sub2.barge("B2").volume == pytest.approx(600.0)


def test_roll_partial_excludes_exhausted_barges():
    inst = rolling_instance(3, reps=2)
    acc = FlowPlan(
        y_in={("B1", "T1", 1): 200.0, ("B1", "T2", 2): 200.0},
        gamma={("B1", 1): 1, ("B1", 2): 1},   # both allowed unload days spent
    )
    sub = _visible_sub_instance(inst, acc, 7, 20)
    assert all(b.id != "B1" for b in sub.barges)


def test_roll_partial_drops_a_barge_whose_remainder_rounds_to_nothing():
    inst = rolling_instance(3, reps=2)   # B1: 700 t, window (1, 5)
    acc = FlowPlan(y_in={("B1", "T2", 1): 699.0}, gamma={("B1", 1): 1})
    sub = _visible_sub_instance(inst, acc, 3, 20)
    assert [(b.id, b.volume) for b in sub.barges][:2] == [("B1", 1.0), ("B2", 600.0)]
    acc.y_in[("B1", "T2", 1)] = 700.0 - 1e-10
    sub = _visible_sub_instance(inst, acc, 3, 20)
    assert [b.id for b in sub.barges] == ["B2", "B1#1"]


def test_roll_partial_rejects_split_runs():
    inst = rolling_instance(4, reps=2)
    bad = fixed_periods(inst.horizon, 2)   # cuts through runs
    build, calls = _counting(_builder())
    with pytest.raises(RollingError, match="splits run"):
        roll_partial(inst, bad, RollParams(solve=SolveOptions(time_limit=300)), build)
    assert calls == []    # refused before the first step's build


def test_roll_partial_end_to_end():
    inst = rolling_instance(5, reps=2)
    periods = run_based_periods(inst.runs, inst.horizon, 4)
    params = RollParams(h_nf=12, n_present=2, n_step=2,
                        solve=SolveOptions(mip_gap=0.005, time_limit=600))
    build, calls = _counting(_builder())
    res = roll_partial(inst, periods, params, build)
    assert len(calls) == len(res.steps) >= 2     # one sub-instance model per step
    from blendplan.simulate import audit
    rep = audit(inst, simulate(inst, res.plan), res.plan)
    assert rep.ok, rep.violations[:5]
    assert res.objective == pytest.approx(plan_objective(inst, res.plan))
    assert res.objective > 0


def test_roll_rejects_bad_partition():
    inst = small_instance(11)
    with pytest.raises(ValueError):
        roll_full(inst, [Period(0, 3)], RollParams(), _builder())


def test_roll_params_validation():
    with pytest.raises(ValueError):
        RollParams(n_present=1, n_step=2)
    with pytest.raises(ValueError):
        RollParams(h_nf=0)
    with pytest.raises(ValueError, match="MIN_STEP_TIME"):
        RollParams(solve=SolveOptions(time_limit=1.0))


SEGMENTS = ("present", "near", "far")   # the columns of SEGMENT_POLICY


def _segment(day, window, t_nf):
    if day < window[0]:
        return "past"
    if day < window[1]:
        return "present"
    return "near" if day <= t_nf else "far"


@pytest.mark.parametrize("roller", [roll_full, roll_partial])
def test_binary_states_follow_the_policy_table(roller):
    inst = rolling_instance(6, reps=2)   # 30 days
    captured = []

    def grab(step, model, res):
        captured.append([(v.kind, v.day, "relaxed" if not v.binary
                          else "fixed" if v.lo == v.hi else "active")
                         for v in model.vars if v.kind in ("gamma", "sigma", "alpha")])

    params = RollParams(h_nf=10, solve=SolveOptions(mip_gap=0.01, time_limit=600))
    res = roller(inst, run_based_periods(inst.runs, inst.horizon, 7), params, _builder(),
                 on_step=grab)
    assert len(captured) == len(res.steps) >= 3
    seen = set()
    for log, states in zip(res.steps, captured):
        offset = log.window[0] if roller is roll_partial else 0
        for kind, day, state in states:
            segment = _segment(day + offset, log.window, log.t_nf)
            want = ("fixed" if segment == "past"
                    else SEGMENT_POLICY[kind][SEGMENTS.index(segment)])
            assert state == want, (log.step, kind, day, segment)
            seen.add(segment)
    want = {"past", *SEGMENTS} if roller is roll_full else {"present", "near"}
    assert seen == want


def test_roll_ends_when_the_budget_runs_out(monkeypatch):
    now = [0.0]

    def solve_on_a_slow_clock(model, opts):
        now[0] += 1000.0       # step 0's solve takes more than the whole budget
        return solve(model, opts)

    monkeypatch.setattr(blendplan.rolling, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(blendplan.rolling, "solve", solve_on_a_slow_clock)
    inst = toy_1t1s()
    params = RollParams(solve=SolveOptions(time_limit=600))
    with pytest.raises(RollingError, match="time budget exhausted with 1 steps left"):
        roll_full(inst, fixed_periods(inst.horizon, 1), params, _builder())
    assert now == [1000.0]     # one step ran


def test_failed_step_solves_once_and_raises(monkeypatch):
    calls = []

    def failing_solve(model, opts):
        calls.append(opts.time_limit)
        return SolveResult("infeasible", None, None, message="forced failure")

    monkeypatch.setattr(blendplan.rolling, "solve", failing_solve)
    inst = small_instance(12)
    with pytest.raises(RollingError, match="step 0: solver returned infeasible: forced failure"):
        roll_full(inst, fixed_periods(inst.horizon, 4), RollParams(), _builder())
    assert len(calls) == 1
