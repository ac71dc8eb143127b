"""HiGHS and reference solves, warm starts, plan extraction."""

import json
import logging
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from blendplan.builders import build_center, build_exact_split, build_mccormick, make_plans
from blendplan.instance import derive_sets, extend_periodic
from blendplan.model import BINARY_KINDS, INF, MilpModel
from blendplan.rolling import StepLog
from blendplan.simulate import (PLAN_FIELDS, FlowPlan, audit, empty_plan, grid_oracle, loss,
                               simulate)
from blendplan.solve import (HIGHS_CORE, ExtractionError, SolveOptions, SolveResult,
                             SolverError, _stdout_to_stderr, extract_flow_plan, highs_core,
                             _plan_starts, row_violations, solve, solve_reference,
                             warm_start)
from conftest import small_instance, tiny_instance, zero_denominator_instance


def test_empty_model_is_optimal_zero():
    m = MilpModel("empty")
    res = solve(m)
    assert res.status == "optimal" and res.objective == 0.0


def test_max_x_hits_upper_bound():
    m = MilpModel("t")
    x = m.add_var("v_unused", ("x",), 0.0, 1.0)
    m.obj = {x.col: 1.0}            # minimize x -> 0; flip for max
    res = solve(m)
    assert res.value(x) == 0.0
    m.obj = {x.col: -1.0}
    res = solve(m)
    assert res.value(x) == 1.0


def test_infeasible_pair_detected():
    m = MilpModel("t")
    x = m.add_var("v_unused", ("x",), 0.0, 10.0)
    m.add_row("xa_mid_lb", ("x",), {x: 1.0}, lo=5.0)
    m.add_row("xa_mid_ub", ("x",), {x: 1.0}, hi=1.0)
    res = solve(m)
    assert res.status == "infeasible"
    assert not res.has_values


def test_bilinear_model_rejected(toy):
    from blendplan.builders import build_exact_mix
    with pytest.raises(SolverError):
        solve(build_exact_mix(toy))


def test_option_validation():
    with pytest.raises(ValueError):
        SolveOptions(mip_gap=-0.1)
    with pytest.raises(ValueError):
        SolveOptions(time_limit=0)
    # NaN fails every comparison, so it must fail the checks too
    with pytest.raises(ValueError, match="mip_gap"):
        SolveOptions(mip_gap=math.nan)
    with pytest.raises(ValueError, match="time_limit"):
        SolveOptions(time_limit=math.nan)
    # inf means "stop at the first incumbent" and "no time limit"
    SolveOptions(mip_gap=math.inf, time_limit=math.inf)


def test_deterministic_repeat(toy):
    m1 = build_center(toy, make_plans(toy, 1.0))
    m2 = build_center(toy, make_plans(toy, 1.0))
    r1 = solve(m1)
    r2 = solve(m2)
    assert r1.objective == pytest.approx(r2.objective, abs=1e-9)


def test_solution_feasible_within_row_tolerance(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    res = solve(m)
    assert res.status in ("optimal", "gap_reached")
    assert not row_violations(m, res.values)
    assert len(res.values) == m.n_vars


def test_row_violations_read_the_column_vector(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    x = solve(m).values
    row = m.rows[0]
    col, c = next(iter(row.coeffs.items()))
    # moving one column off its solved value breaks the row it sits in
    bumped = list(x)
    bumped[col] += 1.0 / c
    assert row.name in [name for name, *_ in row_violations(m, bumped)]
    # a point that misses a column is refused, not read as 0 there
    for point in (x[:-1], x + [0.0], []):
        with pytest.raises(ValueError, match="columns"):
            row_violations(m, point)


def test_reference_backend_matches_highs(toy):
    # shrink the model: single digit on the spec
    inst = replace(toy, barges=(replace(toy.barges[0], specs={"P": 51.5}),))
    m1 = build_center(inst, make_plans(inst, 1.0))
    m2 = build_center(inst, make_plans(inst, 1.0))
    r_ref = solve_reference(m1)
    r_hgs = solve(m2, SolveOptions(mip_gap=0.0))
    assert r_ref.status == r_hgs.status == "optimal"
    assert r_ref.objective == pytest.approx(r_hgs.objective, rel=1e-7)
    assert r_ref.best_bound == pytest.approx(r_hgs.best_bound, rel=1e-7)
    assert r_hgs.gap == 0.0


def test_reference_backend_guards():
    inst = small_instance(0)
    m = build_center(inst, make_plans(inst, 1.0))
    with pytest.raises(SolverError):
        solve_reference(m)


def test_reference_backend_refuses_bilinear_and_large_models(toy):
    with pytest.raises(SolverError, match="takes linear models"):
        solve_reference(build_exact_split(toy))
    m = MilpModel("large")
    for i in range(201):
        m.add_var("v_unused", (f"B{i}",), 0.0, 1.0)
    with pytest.raises(SolverError, match="capped at 200 variables, model has 201"):
        solve_reference(m)


def test_reference_backend_on_a_model_with_no_columns_or_no_feasible_assignment():
    empty = MilpModel("empty")
    empty.obj_offset = 7.0
    res = solve_reference(empty)
    assert (res.status, res.objective, res.best_bound, res.gap) == ("optimal", 7.0, 7.0, 0.0)
    m = MilpModel("infeasible")
    x = m.add_var("gamma", ("B1", 0), 0.0, 1.0, binary=True)
    m.add_row("xa_mid_lb", ("a",), {x: 1.0}, lo=2.0)
    res = solve_reference(m)
    assert (res.status, res.objective, res.best_bound) == ("infeasible", None, None)


def test_extract_rounds_binaries(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    res = solve(m)
    res.values[m.var("gamma", ("B1", 0)).col] = 0.9999
    plan = extract_flow_plan(m, res)
    assert plan.gamma[("B1", 0)] == 1


def test_extract_all_zero_solve_misses_everything(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    for v in m.vars:
        if v.kind in ("gamma", "sigma"):
            m.fix(v, 0.0)
    res = solve(m)
    plan = extract_flow_plan(m, res)
    assert plan.unloaded_total("B1") == 0.0
    assert plan.mis == {0: 200.0, 1: 200.0}
    assert plan.v_unused["B1"] == 400.0


def test_extract_refuses_a_result_without_values(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    with pytest.raises(ExtractionError, match="no values in result with status 'infeasible'"):
        extract_flow_plan(m, SolveResult("infeasible", None, None))


def test_extract_rejects_broken_counts(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    res = solve(m)
    res.values[m.var("gamma", ("B1", 0)).col] = 1.0
    res.values[m.var("gamma", ("B1", 1)).col] = 1.0
    inst2 = replace(toy, barges=(replace(toy.barges[0], max_unloads=1),))
    m.instance = inst2
    with pytest.raises(ExtractionError):
        extract_flow_plan(m, res)


def test_extract_rejects_a_broken_daily_limit():
    inst = small_instance(4)          # max_unloads_per_day = 2
    m = build_center(inst, make_plans(inst, 1.0))
    res = solve(m)
    for v in m.vars_of_kind("gamma"):
        res.values[v.col] = 0.0
    res.values[m.var("gamma", ("B1", 2)).col] = 1.0
    res.values[m.var("gamma", ("B2", 2)).col] = 1.0
    m.instance = replace(inst, ops=replace(inst.ops, max_unloads_per_day=1))
    with pytest.raises(ExtractionError) as err:
        extract_flow_plan(m, res)
    assert str(err.value) == ("rounded binaries violate counting limits: "
                              "daily_unload_limit[2] over by 1")


def test_two_unloads_same_day_within_limit():
    inst = small_instance(4)          # max_unloads_per_day = 2
    m = build_center(inst, make_plans(inst, 1.0))
    res = solve(m)
    for v in m.vars_of_kind("gamma"):
        res.values[v.col] = 0.0
    res.values[m.var("gamma", ("B1", 2)).col] = 1.0
    res.values[m.var("gamma", ("B2", 2)).col] = 1.0
    plan = extract_flow_plan(m, res)  # no error
    assert plan.gamma[("B1", 2)] == plan.gamma[("B2", 2)] == 1


# -- warm starts ---------------------------------------------------------------


def test_inconsistent_start_gets_no_digits(toy, caplog):
    # tank T1 holds 100 and the plan draws 200 on day 0
    inst = replace(toy, tanks=(replace(toy.tanks[0], v_init=100.0),))
    m = build_center(inst, make_plans(inst, 1.0))
    plan = FlowPlan(y_out={("T1", 0): 200.0}, sigma={("T1", 0): 1})
    with caplog.at_level("WARNING", logger="blendplan.solve"):
        warm_start(m, plan)
    assert [r.getMessage() for r in caplog.records] == [
        "warm start digits skipped, plan inconsistent: "
        "tank T1 day 0: outflow 200.0 exceeds available volume 100.0"]
    assert sorted(m.vars[col].name for col in m.starts) == ["sigma[T1,0]", "y_out[T1,0]"]


def test_warm_start_empty_plan_is_noop(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    warm_start(m, FlowPlan())
    assert m.starts == {}


def test_warm_start_sets_flows_and_digits(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    plan = FlowPlan(y_in={("B1", "T1", 0): 400.0}, gamma={("B1", 0): 1},
                    y_out={("T1", 0): 200.0, ("T1", 1): 200.0},
                    sigma={("T1", 0): 1, ("T1", 1): 1},
                    v_unused={"B1": 0.0}, mis={0: 0.0, 1: 0.0})
    warm_start(m, plan)
    assert m.starts[m.var("gamma", ("B1", 0)).col] == 1.0
    assert m.starts[m.var("y_in", ("B1", "T1", 0)).col] == 400.0
    alpha_cols = [v.col for v in m.vars_of_kind("alpha")]
    assert any(c in m.starts for c in alpha_cols)


def test_warm_start_drops_out_of_bounds(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    plan = FlowPlan(y_in={("B1", "T1", 0): 99999.0})   # beyond barge volume
    warm_start(m, plan)
    assert m.var("y_in", ("B1", "T1", 0)).col not in m.starts


def test_warm_start_skips_entries_without_a_column(toy, caplog):
    # B1's window is day 0 alone: its day-1 entries have no column
    inst = replace(toy, barges=(replace(toy.barges[0], window=(0, 0)),))
    m = build_center(inst, make_plans(inst, 1.0))
    plan = FlowPlan(y_in={("B1", "T1", 0): 400.0, ("B1", "T1", 1): 0.0},
                    gamma={("B1", 0): 1, ("B1", 1): 0})
    with caplog.at_level("WARNING", logger="blendplan.solve"):
        warm_start(m, plan)
    assert caplog.records == []
    assert sorted(m.vars[col].name for col in m.starts if m.vars[col].kind != "alpha") == [
        "gamma[B1,0]", "y_in[B1,T1,0]"]


def test_warm_start_echoed_in_export(toy, tmp_path):
    m = build_center(toy, make_plans(toy, 1.0))
    warm_start(m, empty_plan(toy))
    side = tmp_path / "m.tags.json"
    m.write_sidecar(side)
    import json
    data = json.loads(side.read_text())
    assert data["starts"]


@pytest.fixture(scope="module")
def sample_plan():
    """The bundled sample and its flat ``center`` plan."""
    import blendplan
    inst = blendplan.read_instance(blendplan.sample_instance_path())
    model = build_center(inst, make_plans(inst, 1.0))
    return inst, extract_flow_plan(model, solve(model))


@pytest.mark.parametrize("build", [build_center, build_mccormick])
def test_a_plan_round_trips_through_its_columns(sample_plan, build):
    inst, plan = sample_plan
    # the plan states every slack, zeros included
    assert plan.v_unused.keys() == {b.id for b in inst.barges}
    assert plan.mis.keys() == set(derive_sets(inst).demand_days)
    m = warm_start(build(inst, make_plans(inst, 1.0)), plan)
    for name, fld in PLAN_FIELDS.items():
        for key, value in getattr(plan, name).items():
            assert m.starts[m.var(name, fld.index(key)).col] == pytest.approx(value, abs=1e-9)
    # a result holding the starts, every other column 0, reads back as the plan
    values = [m.starts.get(col, 0.0) for col in range(m.n_vars)]
    back = extract_flow_plan(m, SolveResult("optimal", None, None, values))
    for name in PLAN_FIELDS:
        got, want = getattr(back, name), getattr(plan, name)
        assert got.keys() == want.keys(), name
        assert all(abs(got[key] - want[key]) <= 1e-9 for key in want), name


# -- starts and solver telemetry ---------------------------------------------


def test_solve_starts_from_all_miss_plan_and_leaves_model_starts(tmp_path):
    # the tight windows break the first try's plan, so the solve goes on
    # from the all-miss start
    inst = small_instance(0, tight=True)
    m = build_center(inst, make_plans(inst, 1.0))
    before, after = tmp_path / "before.tags.json", tmp_path / "after.tags.json"
    m.write_sidecar(before)
    res = solve(m)
    m.write_sidecar(after)
    assert res.start == "all-miss" and res.status in ("optimal", "gap_reached")
    assert m.starts == {}
    assert after.read_bytes() == before.read_bytes()


def test_solve_uses_given_start_and_leaves_it_unchanged(toy, tmp_path):
    m = build_center(toy, make_plans(toy, 1.0))
    warm_start(m, empty_plan(toy))
    starts = dict(m.starts)
    before, after = tmp_path / "before.tags.json", tmp_path / "after.tags.json"
    m.write_sidecar(before)
    res = solve(m)
    m.write_sidecar(after)
    assert res.start == "given" and res.status in ("optimal", "gap_reached")
    assert m.starts == starts
    assert after.read_bytes() == before.read_bytes()


def test_model_without_instance_gets_no_start():
    m = MilpModel("t")
    x = m.add_var("gamma", ("B1", 0), 0.0, 1.0, binary=True)
    m.obj = {x.col: -1.0}
    res = solve(m)
    assert res.start is None and res.value(x) == 1.0


def test_zero_optimum_reports_positive_zero(toy):
    # no barge and no demand: no objective offset and an optimum of 0,
    # which a plain negation of HiGHS's values reports as -0.0
    inst = replace(toy, barges=(), runs=())
    res = solve(build_center(inst, make_plans(inst, 1.0)))
    assert res.status == "optimal" and res.objective == 0.0
    assert math.copysign(1.0, res.objective) == 1.0
    assert math.copysign(1.0, res.best_bound) == 1.0


def test_lp_is_optimal_with_zero_gap(toy):
    # HiGHS reports mip_gap = inf and mip_node_count = -1 for a model with
    # no integer columns
    m = build_center(toy, make_plans(toy, 1.0))
    for v in m.vars:
        v.binary = False
    res = solve(m)
    assert m.n_binary == 0
    assert res.status == "optimal" and res.gap == 0.0 and res.nodes == 0
    assert res.best_bound == res.objective


def test_no_finite_dual_bound_is_none(sample):
    # stopped before HiGHS has any dual bound: the bound is the model's value
    # bound, never +-inf, so a steps.jsonl line stays valid JSON; no plan, no gap
    m = build_center(sample, make_plans(sample, 1.0))
    res = solve(m, SolveOptions(time_limit=0.001))
    assert res.status == "time_limit"
    assert res.best_bound == m.value_bound() == 23143600.0
    assert res.objective is None and res.gap is None
    entry = StepLog(0, (0, 7), 30, res.status, res.objective, res.best_bound,
                    res.wall_time, m.n_binary, res.nodes, res.start)

    def reject(name):
        raise ValueError(f"non-finite number {name} in JSON")

    assert json.loads(entry.to_json(), parse_constant=reject)["bound"] == 23143600.0


@pytest.mark.parametrize("time_limit", [1e-6, 600.0])
def test_time_limit_overspend_is_logged(toy, caplog, time_limit):
    # building the start alone outlasts a 1 us limit; 600 s is never reached
    m = build_center(toy, make_plans(toy, 1.0))
    with caplog.at_level(logging.WARNING, logger="blendplan.solve"):
        res = solve(m, SolveOptions(time_limit=time_limit))
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert (res.wall_time > time_limit) == (time_limit < 1.0)
    assert len(warned) == (1 if res.wall_time > time_limit else 0)
    if warned:
        assert f"{res.wall_time:.3f} s" in warned[0] and f"{time_limit:g} s" in warned[0]


def test_stdout_of_run_goes_to_stderr(capfd):
    with _stdout_to_stderr():
        os.write(1, b"from fd 1\n")
        with _stdout_to_stderr():      # nested, as concurrent solves nest
            os.write(1, b"nested\n")
        os.write(1, b"still fd 1\n")
    print("after")
    out, err = capfd.readouterr()
    assert out == "after\n"
    assert err == "from fd 1\nnested\nstill fd 1\n"


def test_concurrent_redirects_restore_stdout(capfd):
    # HiGHS releases the GIL, so solves in threads enter and leave the
    # redirection in any order; fd 1 must come back once all have left
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def enter_and_write():
            for _ in range(200):
                with _stdout_to_stderr():
                    os.write(1, b"x")

        threads = [threading.Thread(target=enter_and_write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    os.write(1, b"after\n")
    out, err = capfd.readouterr()
    assert out == "after\n" and err == "x" * 1600


# -- the value-bound stop ------------------------------------------------------


def _within_gap_of_bound(res, mip_gap):
    return res.objective >= res.best_bound / (1.0 + mip_gap) * (1.0 - 1e-9)


def test_sample_center_stop_keeps_result_pinned(sample):
    # the first try completes the flow relaxation's plan at the all-served
    # target, 23,143,600, and proves it
    m = build_center(sample, make_plans(sample, 1.0))
    assert m.value_bound() == m.obj_offset == 23143600.0
    res = solve(m)
    assert res.status == "optimal" and res.message == "value bound reached"
    assert res.start == "flow"
    assert res.objective == res.best_bound == 23143600.0 and res.gap == 0.0
    assert _within_gap_of_bound(res, 0.005)


def test_value_bound_of_hand_built_models():
    m = MilpModel("t")
    y = m.add_var("y_in", ("B1", "T1", 0), 2.0, 10.0)
    miss = m.add_var("mis", (0,), 0.0, INF)
    free = m.add_var("v_mid", ("T1", 0), -INF, INF)
    m.set_objective({y: -3.0, miss: 5.0, free: 0.0}, 100.0)
    # y at its upper bound, miss at 0; the zero-cost free column adds nothing
    assert free.col not in m.obj
    assert m.value_bound() == 130.0
    m.set_objective({y: 3.0, miss: 5.0}, 100.0)
    assert m.value_bound() == 94.0


def _gated_model(cost: float, lo: float, hi: float):
    """A binary gate and one costed column, bounded only by the gate's row."""
    m = MilpModel("t")
    g = m.add_var("gamma", ("B1", 0), 0.0, 1.0, binary=True)
    y = m.add_var("y_in", ("B1", "T1", 0), lo, hi)
    # y <= 10 g - 3 (cost < 0: the gate opens) or y >= 3 - 10 g (cost > 0)
    if cost < 0:
        m.add_row("unload_flow_gate", ("B1", "T1", 0), {y: 1.0, g: -10.0}, hi=-3.0)
    else:
        m.add_row("unload_min_pct", ("B1", 0), {y: 1.0, g: 10.0}, lo=3.0)
    m.set_objective({y: cost}, 0.0)
    return m, g, y


@pytest.mark.parametrize("cost, lo, hi, want", [
    (-1.0, 0.0, INF, 7.0),        # negative cost, no upper bound
    (1.0, -INF, INF, 7.0),        # positive cost, no lower bound
])
def test_unbounded_costed_column_gets_no_target(cost, lo, hi, want):
    m, g, y = _gated_model(cost, lo, hi)
    assert m.value_bound() is None
    res = solve(m)
    assert res.status == "optimal" and res.message != "value bound reached"
    assert res.objective == pytest.approx(want) and res.value(g) == 1.0
    assert _within_gap_of_bound(res, 0.005)


def test_negative_cost_column_with_finite_bound_solves_to_it():
    # value bound 0 + 2 * 7 = 14 is the optimum (gate open, y at 7)
    m, g, y = _gated_model(-2.0, 0.0, 7.0)
    assert m.value_bound() == 14.0
    res = solve(m)
    assert res.status == "optimal" and res.gap == 0.0
    assert res.objective == res.best_bound == 14.0 and res.value(g) == 1.0


def test_stop_matches_reference(toy):
    # as test_reference_backend_matches_highs (mip_gap 0), at the default
    # gap, where the stop fires at the all-served optimum
    inst = replace(toy, barges=(replace(toy.barges[0], specs={"P": 51.5}),))
    ref = solve_reference(build_center(inst, make_plans(inst, 1.0)))
    res = solve(build_center(inst, make_plans(inst, 1.0)))
    assert res.status == ref.status == "optimal" and res.message == "value bound reached"
    assert res.objective == pytest.approx(ref.objective, rel=1e-9)
    assert res.best_bound == pytest.approx(ref.best_bound, rel=1e-9)
    assert res.gap == 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("builder", [build_center, build_mccormick])
@pytest.mark.parametrize("mip_gap", [0.0, 0.05])
def test_objective_within_gap_of_bound(seed, builder, mip_gap):
    inst = small_instance(seed)
    m = builder(inst, make_plans(inst, 1.0))
    res = solve(m, SolveOptions(mip_gap=mip_gap))
    assert res.has_values and res.status in ("optimal", "gap_reached")
    assert res.best_bound <= m.value_bound()
    assert _within_gap_of_bound(res, mip_gap)
    assert (res.status == "optimal") == (res.gap == 0.0)


_INTEROP_SCRIPT = """
import sys
from dataclasses import replace

from blendplan.builders import build_center, make_plans
from blendplan.solve import HIGHS_CORE, SolveOptions, solve, solve_reference
from conftest import toy_1t1s

toy = toy_1t1s()
inst = replace(toy, barges=(replace(toy.barges[0], specs={"P": 51.5}),))
first = solve(build_center(inst, make_plans(inst, 1.0)), SolveOptions(mip_gap=0.0))
used = sys.modules[HIGHS_CORE]
assert "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize._highspy import _core
assert _core is used
lp = scipy.optimize.linprog([-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.0],
                            bounds=[(0, 1), (0, 1)], method="highs")
assert lp.status == 0 and lp.fun == -2.0, lp
ref = solve_reference(build_center(inst, make_plans(inst, 1.0)))
assert ref.status == first.status == "optimal", (ref.status, first.status)
assert abs(ref.objective - first.objective) <= 1e-7 * abs(first.objective)
second = solve(build_center(inst, make_plans(inst, 1.0)), SolveOptions(mip_gap=0.0))
assert second.objective == first.objective
assert sys.modules[HIGHS_CORE] is used
print("ok")
"""


def test_highs_core_is_shared_with_a_later_scipy_optimize():
    # a fresh interpreter: this test process has loaded scipy.optimize already
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(here, os.pardir, "src"), here])
    proc = subprocess.run([sys.executable, "-c", _INTEROP_SCRIPT],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_missing_highs_extension_is_a_solver_error(toy, tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, HIGHS_CORE, raising=False)
    # the module, not the function `blendplan.solve` that the package exports
    monkeypatch.setattr(sys.modules[solve.__module__], "_highs_dir", lambda: str(tmp_path))
    with pytest.raises(SolverError, match=f"no HiGHS extension _core in {tmp_path}"):
        solve(build_center(toy, make_plans(toy, 1.0)))
    assert HIGHS_CORE not in sys.modules


def test_a_highs_extension_that_fails_to_load_leaves_no_module(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, HIGHS_CORE, raising=False)
    monkeypatch.setattr(sys.modules[solve.__module__], "_highs_dir", lambda: str(tmp_path))
    (tmp_path / "_core.py").write_text("raise ImportError('broken _core')\n")
    with pytest.raises(ImportError, match="broken _core"):
        highs_core()
    assert HIGHS_CORE not in sys.modules


def test_a_first_try_whose_plan_fails_extraction_falls_back(sample, monkeypatch):
    module, failed = sys.modules[solve.__module__], []

    def fail_once(model, result):
        if not failed:
            failed.append(1)
            raise ExtractionError("extraction refused")
        return extract_flow_plan(model, result)

    monkeypatch.setattr(module, "extract_flow_plan", fail_once)
    m = build_center(sample, make_plans(sample, 1.0))
    res = solve(m)
    assert failed == [1]
    assert res.start == "all-miss" and res.status in ("optimal", "gap_reached")
    plan = extract_flow_plan(m, res)
    assert audit(sample, simulate(sample, plan), plan).ok


# -- the held run ---------------------------------------------------------------


class _Recorded:
    """A ``_Highs`` that records, for each run, the time limit it ran under,
    whether it was a held run (under a node limit), the seconds it took, its
    status and the value of its incumbent, and the columns of each start it
    was given."""

    def __init__(self, real, runs, starts):
        self._h, self._runs, self._starts = real(), runs, starts

    def __getattr__(self, name):
        return getattr(self._h, name)

    def setSolution(self, n, cols, values):
        self._starts.append(set(int(c) for c in cols))
        return self._h.setSolution(n, cols, values)

    def run(self):
        limit = self._h.getOptionValue("time_limit")[1]
        held = self._h.getOptionValue("mip_max_nodes")[1] != highs_core().kHighsIInf
        t0 = time.perf_counter()
        status = self._h.run()
        seconds = time.perf_counter() - t0
        info = self._h.getInfo()
        found = info.primal_solution_status == highs_core().kSolutionStatusFeasible
        self._runs.append({"time_limit": limit, "held": held, "seconds": seconds,
                           "status": self._h.modelStatusToString(self._h.getModelStatus()),
                           "objective": 0.0 - info.objective_function_value if found else None})
        return status


@pytest.fixture
def recorded(monkeypatch):
    """The runs and starts of every ``_Highs`` a solve makes."""
    core = highs_core()
    runs, starts = [], []
    real = core._Highs
    monkeypatch.setattr(core, "_Highs", lambda: _Recorded(real, runs, starts))
    return runs, starts


class _Rejecting:
    """A ``_Highs`` that refuses every model it is passed."""

    def __init__(self, real):
        self._h = real()

    def __getattr__(self, name):
        return getattr(self._h, name)

    def passModel(self, lp):
        return highs_core().HighsStatus.kError


def test_a_model_highs_rejects_is_an_error_without_values(toy, monkeypatch):
    core = highs_core()
    real = core._Highs
    monkeypatch.setattr(core, "_Highs", lambda: _Rejecting(real))
    m = build_center(toy, make_plans(toy, 1.0))
    res = solve(m)
    assert res.status == "error" and res.message == "HiGHS rejected the model"
    assert res.values == [] and res.start is None


def _binaries_started_at(model, value: float):
    """The model with every gamma and sigma started at ``value`` and the
    all-miss plan's other columns."""
    warm_start(model, empty_plan(model.instance))
    for v in model.vars_of_kind("gamma", "sigma"):
        model.starts[v.col] = value
    return model


def test_sample_flat_solve_ends_in_its_held_run(sample, recorded):
    # the flow relaxation in at most half the time, then its plan completed
    # in one held run, which meets the bound: no full model
    runs, starts = recorded
    m = build_center(sample, make_plans(sample, 1.0))
    res = solve(m)
    assert [r["status"] for r in runs] == ["Target for objective reached", "Optimal"]
    assert runs[0]["time_limit"] == 300.0
    assert starts == []
    assert res.message == "value bound reached" and res.best_bound == m.value_bound()


def test_full_run_betters_a_held_run_that_misses_the_target(recorded):
    # no unload and no feed: the held run's plan misses all demand
    runs, starts = recorded
    inst = small_instance(0)
    m = _binaries_started_at(build_center(inst, make_plans(inst, 1.0)), 0.0)
    held = {v.col for v in m.vars if v.kind in BINARY_KINDS and v.col in m.starts}
    res = solve(m)
    assert len(runs) == 2 and runs[0]["status"] == "Optimal"
    assert runs[0]["objective"] < m.value_bound() / 1.005
    # the full run starts from the held run's plan, every column of it
    assert starts == [set(range(m.n_vars))] and held < starts[0]
    assert res.status in ("optimal", "gap_reached") and res.start == "given"
    assert res.objective >= runs[0]["objective"]
    assert res.objective == pytest.approx(runs[1]["objective"], rel=1e-12)


def test_infeasible_held_values_still_give_a_plan(recorded):
    # every barge unloading every day breaks the unload-count limits
    runs, starts = recorded
    inst = small_instance(0)
    m = _binaries_started_at(build_center(inst, make_plans(inst, 1.0)), 1.0)
    res = solve(m)
    assert [r["status"] for r in runs][0] == "Infeasible" and len(runs) == 3
    # the held run found no plan: the all-miss try's plan starts the full run
    assert starts == [set(range(m.n_vars))] and res.start == "all-miss"
    assert res.has_values and res.status in ("optimal", "gap_reached")
    plan = extract_flow_plan(m, res)
    assert audit(inst, simulate(inst, plan), plan).ok


@pytest.mark.parametrize("build", [build_center, build_mccormick])
def test_a_given_start_without_a_plan_falls_back_to_the_all_miss_try(sample, build):
    # every gamma and sigma at 1 breaks the unload-count limits, so the given
    # start's held run finds no plan; the all-miss plan is always feasible
    m = _binaries_started_at(build(sample, make_plans(sample, 1.0)), 1.0)
    res = solve(m, SolveOptions(time_limit=2.0))
    assert res.has_values and res.start == "all-miss" and res.wall_time <= 2.5
    plan = extract_flow_plan(m, res)
    assert audit(sample, simulate(sample, plan), plan).ok


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("start", [None, 0.0, 1.0])
def test_best_bound_lies_between_objective_and_value_bound(seed, start):
    inst = small_instance(seed)
    m = build_center(inst, make_plans(inst, 1.0))
    if start is not None:
        _binaries_started_at(m, start)
    res = solve(m)
    assert res.status in ("optimal", "gap_reached")
    assert res.objective <= res.best_bound <= m.value_bound()


@pytest.mark.parametrize("seed", [13, 18])
def test_a_plan_a_rounding_error_above_the_value_bound_reads_at_it(seed):
    # HiGHS reports these plans 5e-10 above their exact value bounds
    inst = tiny_instance(seed)
    m = build_center(inst, make_plans(inst, 1.0))
    res = solve(m, SolveOptions(mip_gap=1e-4))
    assert res.objective == res.best_bound == m.value_bound()
    assert res.status == "optimal" and res.message == "value bound reached"


@pytest.mark.parametrize("time_limit", [60.0, 0.05])
def test_the_full_run_gets_the_time_the_held_run_left(recorded, time_limit):
    runs, _ = recorded
    inst = small_instance(0)
    m = _binaries_started_at(build_center(inst, make_plans(inst, 1.0)), 0.0)
    solve(m, SolveOptions(time_limit=time_limit))
    assert len(runs) == 2 and runs[0]["time_limit"] == time_limit
    assert runs[0]["seconds"] + runs[1]["time_limit"] <= time_limit


def test_a_held_run_out_of_time_ends_the_solve(sample, recorded):
    # a given start: no first try before the held run
    runs, _ = recorded
    m = warm_start(build_center(sample, make_plans(sample, 1.0)), empty_plan(sample))
    res = solve(m, SolveOptions(time_limit=0.01))
    assert [r["status"] for r in runs] == ["Time limit reached"]
    assert res.status == "time_limit" and res.best_bound == m.value_bound()
    if res.objective is not None:
        assert res.gap == (res.best_bound - res.objective) / res.objective


def _sample_without_value_bound(sample):
    # barge B1's unused volume, a costed column, unbounded below; a given
    # start, so that the held run comes first
    m = warm_start(build_center(sample, make_plans(sample, 1.0)), empty_plan(sample))
    m.var("v_unused", ("B1",)).lo = -INF
    return m


@pytest.mark.parametrize("make, time_limit", [
    (_sample_without_value_bound, 0.01),                      # out of time in the held run
    (lambda sample: _gated_model(-1.0, 0.0, INF)[0], 1e-6),   # no start: one full run
], ids=["held", "full"])
def test_a_time_limit_without_value_bound_has_no_bound(sample, recorded, make, time_limit):
    runs, _ = recorded
    m = make(sample)
    assert m.value_bound() is None
    res = solve(m, SolveOptions(time_limit=time_limit))
    assert [r["status"] for r in runs] == ["Time limit reached"]
    assert res.status == "time_limit" and res.best_bound is None and res.gap is None


def test_a_time_limited_sample_solve_keeps_its_budget(recorded):
    # with T1's initial S2 at 0 the first try fails and the solve runs out
    # of time: the first try's runs come out of the budget, and the solve
    # returns within a second of its limit with the value bound as its bound
    runs, _ = recorded
    inst = zero_denominator_instance()
    m = build_center(inst, make_plans(inst, 1.0))
    res = solve(m, SolveOptions(time_limit=2.0))
    assert res.status == "time_limit" and res.start == "all-miss" and res.wall_time <= 3.0
    assert len(runs) >= 3 and runs[0]["time_limit"] == 1.0
    assert sum(r["seconds"] for r in runs[:-1]) + runs[-1]["time_limit"] <= 2.0 + 1e-9
    assert res.has_values and res.best_bound == m.value_bound()
    assert res.gap == pytest.approx((res.best_bound - res.objective) / res.objective)


@pytest.mark.parametrize("build", [build_center, build_mccormick],
                         ids=["center", "mccormick"])
def test_a_held_run_without_a_plan_leaves_the_full_run_its_budget(sample, build):
    # every barge unloading every day: the held run is infeasible, and the
    # full run starts from no plan, in the time the held run left
    m = _binaries_started_at(build(sample, make_plans(sample, 1.0)), 1.0)
    res = solve(m, SolveOptions(time_limit=2.0))
    assert res.wall_time <= 2.5


@pytest.mark.parametrize("build", [build_center, build_mccormick],
                         ids=["center", "mccormick"])
def test_a_caller_start_without_binaries_is_no_try(sample, build):
    # the all-miss plan's flows, volumes and misses: nothing for a held run
    # to complete, so the solve takes its first try as with no start
    m = warm_start(build(sample, make_plans(sample, 1.0)), empty_plan(sample))
    for col in [col for col in m.starts if m.vars[col].kind in BINARY_KINDS]:
        del m.starts[col]
    assert m.starts
    res = solve(m, SolveOptions(time_limit=2.0))
    assert res.start == "flow" and res.status == "optimal" and res.wall_time <= 2.0


def test_a_solve_out_of_time_keeps_its_best_held_plan(sample, monkeypatch):
    # the first held run finds a plan short of the bound, the second none,
    # and then no time is left: the solve returns the first run's plan
    module = sys.modules[solve.__module__]
    m = _binaries_started_at(build_center(sample, make_plans(sample, 1.0)), 0.0)
    ones = {**m.starts, **{v.col: 1.0 for v in m.vars_of_kind("gamma", "sigma")}}
    monkeypatch.setattr(module, "_tries",
                        lambda *args: iter([("first", dict(m.starts)), ("second", ones)]))
    real, held = module._Runs.held_run, []

    def held_run(runs, starts):
        result = real(runs, starts)
        held.append((result.objective, result.nodes))
        if len(held) == 2:
            runs.left = 0.0
        return result

    monkeypatch.setattr(module._Runs, "held_run", held_run)
    res = solve(m)
    assert held[0][0] is not None and held[1][0] is None
    assert res.has_values and res.status == "time_limit" and res.start == "first"
    assert res.objective == held[0][0] and res.nodes == held[1][1]
    plan = extract_flow_plan(m, res)
    assert audit(sample, simulate(sample, plan), plan).ok


# -- the first try --------------------------------------------------------------


def test_a_held_run_within_the_gap_ends_the_solve_whatever_its_status(sample, recorded):
    # a start from the solved plan fixes every binary: HiGHS reports the
    # held run's optimum as Optimal, not as the objective target
    runs, starts = recorded
    m = build_center(sample, make_plans(sample, 1.0))
    plan = extract_flow_plan(m, solve(m))
    runs.clear()
    again = warm_start(build_center(sample, make_plans(sample, 1.0)), plan)
    res = solve(again)
    assert [r["status"] for r in runs] == ["Optimal"] and starts == []
    assert res.start == "given" and res.message == "value bound reached"
    assert res.status == "optimal" and res.objective == res.best_bound == 23143600.0


def _cell_midpoint(model, k, q, t):
    p = model.plans[(k, q)]
    code = sum(2 ** (i - 1) * model.starts[model.var("alpha", (k, q, t, i)).col]
               for i in range(1, p.n + 1))
    return p.lo + p.eps * (code + 0.5)


def test_center_starts_hold_every_relaxed_blend_row(sample):
    # a quarter of each barge, spread over its window days and tanks, and
    # no feed; the digits encode the center model's own arithmetic, so each
    # day's cell midpoint is within half a cell of what the day before and
    # the inflows give (digits of the exactly simulated specs break 5 of
    # these 180 rows)
    plan = FlowPlan()
    for b in sample.barges:
        days = range(b.window[0], b.window[1] + 1)
        for t in days:
            for k in b.allowed_tanks:
                plan.y_in[(b.id, k, t)] = b.volume / (4 * len(days) * len(b.allowed_tanks))
    m = warm_start(build_center(sample, make_plans(sample, 1.0)), plan)
    trace = simulate(sample, plan)
    checked = 0
    for tank in sample.tanks:
        for q in sample.spec_ids():
            p = m.plans[(tank.id, q)]
            if p.n == 0:
                continue
            before = tank.specs_init[q] * tank.v_init
            for t in range(sample.horizon):
                mass = before + sum(b.specs[q] * plan.y_in.get((b.id, tank.id, t), 0.0)
                                    for b in sample.barges)
                v_mid = trace.v_mid[(tank.id, t)]
                mid = _cell_midpoint(m, tank.id, q, t)
                assert abs(mid * v_mid - mass) <= p.eps / 2.0 * v_mid * (1.0 + 1e-9) + 1e-9
                before = mid * trace.v_end[(tank.id, t)]
                checked += 1
    assert checked == 180


def test_all_miss_digits_are_the_same_in_both_encodings(sample):
    plans = make_plans(sample, 1.0)
    digits = []
    for build in (build_center, build_mccormick):
        m = build(sample, plans)
        starts = _plan_starts(m, empty_plan(sample))
        digits.append({v.index: starts[v.col] for v in m.vars_of_kind("alpha")})
    assert digits[0] == digits[1] and digits[0]


def _optimum(model_of):
    """The model's optimum: solved at gap 0 from the all-miss start, given,
    so with no first try."""
    m = model_of()
    warm_start(m, empty_plan(m.instance))
    res = solve(m, SolveOptions(mip_gap=0.0))
    assert res.status == "optimal" and res.start == "given"
    return res.objective


@pytest.mark.parametrize("seed", range(20))
def test_best_bound_is_never_below_the_grid_oracle(seed):
    # criterion 4's instances and settings
    inst = tiny_instance(seed)
    oracle = grid_oracle(inst, 0.125 if len(inst.barges) == 1 else 0.25)
    res = solve(build_center(inst, make_plans(inst, 1.0)),
                SolveOptions(mip_gap=1e-4, time_limit=120))
    assert res.status in ("optimal", "gap_reached")
    assert res.best_bound >= oracle * (1.0 - 1e-12)


@pytest.mark.parametrize("tight", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_every_flat_result_is_within_the_gap_of_its_bound(seed, tight):
    inst = small_instance(seed, tight=tight)
    m = build_center(inst, make_plans(inst, 1.0))
    res = solve(m)
    assert res.status in ("optimal", "gap_reached") and res.start == ("all-miss" if tight else "flow")
    assert _within_gap_of_bound(res, 0.005)
    assert res.objective <= res.best_bound * (1.0 + 1e-9) <= m.value_bound() * (1.0 + 1e-9)


def test_a_tightened_instance_falls_back_with_a_valid_bound():
    # its flow plan breaks the tightened windows: the solve goes on from the
    # all-miss start, and its bound is at least the model's optimum
    inst = small_instance(1, tight=True)

    def model():
        return build_center(inst, make_plans(inst, 1.0))

    res = solve(model())
    assert res.start == "all-miss" and res.status in ("optimal", "gap_reached")
    assert res.best_bound >= _optimum(model) * (1.0 - 1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_a_first_try_that_falls_back_goes_on_to_the_all_miss_start(recorded, seed):
    # the relaxed run, the held run of the flow start, which the tightened
    # windows make infeasible, the held run of the all-miss start, then the
    # full run from that held run's plan
    runs, starts = recorded
    inst = small_instance(seed, tight=True)
    m = build_center(inst, make_plans(inst, 1.0))
    res = solve(m)
    assert res.start == "all-miss"
    assert [r["held"] for r in runs] == [False, True, True, False]
    assert runs[0]["time_limit"] == 300.0 and runs[1]["status"] == "Infeasible"
    assert runs[2]["objective"] is not None and starts == [set(range(m.n_vars))]


def test_a_solve_that_ends_in_its_first_try_encodes_no_all_miss_start(sample, monkeypatch):
    module = sys.modules[solve.__module__]
    encoded, real = [], module._plan_starts
    monkeypatch.setattr(module, "_plan_starts",
                        lambda model, plan, *args: encoded.append(plan) or real(model, plan, *args))
    res = solve(build_center(sample, make_plans(sample, 1.0)))
    assert res.start == "flow"
    assert len(encoded) == 1 and encoded[0].y_in      # the flow plan's, not the all-miss one


def test_a_caller_bound_keeps_the_first_try_a_relaxation():
    # barge B1's unused volume unbounded below: no value bound, and a plan
    # may draw more than the barge holds; the relaxation's bound is still
    # a bound on this model's value
    inst = small_instance(0)

    def model():
        m = build_center(inst, make_plans(inst, 1.0))
        m.var("v_unused", ("B1",)).lo = -INF
        return m

    m = model()
    assert m.value_bound() is None
    res = solve(m)
    assert res.status in ("optimal", "gap_reached") and res.best_bound is not None
    assert res.objective > m.obj_offset
    assert res.best_bound >= _optimum(model) * (1.0 - 1e-9)


@pytest.mark.parametrize("change", ["none", "relaxed", "fixed"])
def test_a_relaxed_or_fixed_binary_keeps_the_first_try(monkeypatch, change):
    # a rolling step relaxes or fixes dated binaries; either way the
    # relaxation, which keeps every column bound, still bounds the model
    tried = []
    monkeypatch.setattr(sys.modules[solve.__module__], "_flow_relaxation",
                        lambda *args: tried.append(1))
    inst = small_instance(0)
    m = build_center(inst, make_plans(inst, 1.0))
    alpha, gamma = m.vars_of_kind("alpha")[0], m.vars_of_kind("gamma")[0]
    if change == "relaxed":
        alpha.binary = False
    elif change == "fixed":
        m.fix(gamma, 0.0)
    res = solve(m)
    assert tried == [1]
    assert res.start == "all-miss" and res.status in ("optimal", "gap_reached")


@pytest.mark.parametrize("seed", [0, 8, 9, 11])
def test_a_plan_a_rounding_error_below_its_bound_is_optimal(seed):
    # these plans end 1.3e-16 to 2.2e-16 below their bounds, relatively
    inst = tiny_instance(seed)
    res = solve(build_center(inst, make_plans(inst, 1.0)), SolveOptions(mip_gap=1e-4))
    assert res.status == "optimal" and res.gap == 0.0
    assert res.best_bound == pytest.approx(res.objective, rel=1e-15)


def test_gap_is_zero_within_its_tolerance():
    gap = sys.modules[solve.__module__]._gap
    assert gap(1650000.0, 1649999.9999999998) == 0.0
    assert gap(100.0, 100.0 + 1e-6) == 0.0        # a bound a tolerance below the plan
    assert gap(100.0 * (1.0 + 2e-9), 100.0) == pytest.approx(2e-9)
    assert gap(101.0, 100.0) == pytest.approx(0.01)
    assert gap(None, 100.0) is None and gap(100.0, 0.0) is None


def test_90_day_sample_center_solve_is_proven_optimal(sample):
    # the flow optimum, 5.401 % loss, is a plan of the center model
    inst = extend_periodic(sample, 90)
    m = build_center(inst, make_plans(inst, 1.0))
    res = solve(m, SolveOptions(time_limit=60.0))
    assert res.status == "optimal" and res.start == "flow" and res.gap == 0.0
    # the flow bound, 65680800, lies below the value bound, 69430800; the
    # relaxation's dual bound sits a rounding error below the plan
    assert res.message == "flow bound reached" and res.best_bound >= res.objective
    plan = extract_flow_plan(m, res)
    assert audit(inst, simulate(inst, plan), plan).ok
    assert loss(inst, plan).pct_loss == pytest.approx(5.401, abs=5e-4)
