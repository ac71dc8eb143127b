"""Acceptance gate: one test per criterion, each printing a PASS line.

Absolute solver wall-times are machine-dependent, so the suite checks
exact table values, analytic formulas, property suites against
independent oracles, and relative method orderings only.
"""

import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from blendplan.builders import (CenterOptions, build_center, build_mccormick,
                                make_plans)
from blendplan.discretize import (binary_count, binary_count_ratio, decode,
                                  encode, grid_value, plan)
from blendplan.instance import Barge, Run, SpecDef, Tank, derive_sets
from blendplan.rolling import RollParams, fixed_periods, roll_full, run_based_periods
from blendplan.simulate import (FlowPlan, audit, empty_plan, grid_oracle, loss,
                                plan_objective, simulate, value_target)
from blendplan.solve import SolveOptions, extract_flow_plan, solve
from conftest import rolling_instance, small_instance, tiny_instance, toy_1t1s

TABLE_RATIOS = {3: 1.26186, 4: 1.5, 5: 1.72271, 6: 1.93426,
                7: 2.13724, 8: 2.33333, 9: 2.52372, 10: 2.70927}


def _report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_base_ratio_table():
    t0 = time.perf_counter()
    for b, want in TABLE_RATIOS.items():
        got = binary_count_ratio(b, 2)
        assert got == pytest.approx(want, abs=1e-5), (b, got, want)
    z2 = binary_count(0.0, 1.0, 1e-6, base=2)
    z10 = binary_count(0.0, 1.0, 1e-6, base=10)
    assert z10 / z2 == pytest.approx(TABLE_RATIOS[10], rel=0.05)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, f"eight table ratios to 1e-5; empirical 10-vs-2 ratio {z10 / z2:.4f} "
               f"within 5% of {TABLE_RATIOS[10]} ({dt:.2f}s)")


def test_criterion_02_round_trip_10k():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for _ in range(10_000):
        lo = float(rng.uniform(-100.0, 100.0))
        width = float(rng.uniform(1e-3, 150.0))
        eps_hat = width * float(rng.uniform(1e-4, 1.0))
        p = plan(lo, lo + width, eps_hat)
        f = float(rng.uniform(lo, lo + width))
        code = encode(f, p)
        back = decode(code, p)
        assert abs(back - f) <= 1e-12 * max(1.0, abs(f))
        g = grid_value(code, p)
        assert abs(f - g) <= p.eps * (1 + 1e-9)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    _report(2, f"10,000 encode/decode round trips exact to 1e-12, grid distance <= eps ({dt:.2f}s)")


def _substitution_residuals(inst, plan_, trace):
    """Evaluate the defining balance equations at the simulated point."""
    ds = derive_sets(inst)
    res = []
    prev_v = {k.id: k.v_init for k in inst.tanks}
    prev_f = {(k.id, q): k.specs_init[q] for k in inst.tanks for q in inst.spec_ids()}
    for t in range(inst.horizon):
        feed = sum(plan_.y_out.get((k.id, t), 0.0) for k in inst.tanks)
        for k in inst.tanks:
            vin = sum(plan_.y_in.get((b.id, k.id, t), 0.0) for b in inst.barges)
            vm = trace.v_mid[(k.id, t)]
            res.append(vin + prev_v[k.id] - vm)
            res.append(vm - plan_.y_out.get((k.id, t), 0.0) - trace.v_end[(k.id, t)])
            for q in inst.spec_ids():
                inflow_mass = sum(inst.barge(b.id).specs[q] * plan_.y_in.get((b.id, k.id, t), 0.0)
                                  for b in inst.barges)
                if vm > 0:
                    res.append((trace.f[(k.id, q, t)] * vm
                                - inflow_mass - prev_f[(k.id, q)] * prev_v[k.id]) / max(vm, 1.0))
            prev_v[k.id] = trace.v_end[(k.id, t)]
            for q in inst.spec_ids():
                prev_f[(k.id, q)] = trace.f[(k.id, q, t)]
        if ds.demand(t) > 0:
            res.append(feed + plan_.mis.get(t, ds.demand(t) - feed) - ds.demand(t))
        if feed > 0:
            for q in inst.spec_ids():
                mass = sum(trace.f[(k.id, q, t)] * plan_.y_out.get((k.id, t), 0.0)
                           for k in inst.tanks)
                res.append((trace.feed_spec[(q, t)] * feed - mass) / max(feed, 1.0))
    for b in inst.barges:
        res.append(plan_.unloaded_total(b.id) + plan_.v_unused.get(b.id, 0.0) - b.volume)
    return res


def test_criterion_03_constraint_semantics():
    from test_simulate import _random_consistent_plan
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    n_plans = 0
    while n_plans < 100:
        inst = tiny_instance(n_plans % 20)
        plan_ = _random_consistent_plan(inst, rng)
        trace = simulate(inst, plan_)
        for r in _substitution_residuals(inst, plan_, trace):
            assert abs(r) <= 1e-9
        n_plans += 1

    # hand counterexamples: the audit flags exactly the family broken
    toy = toy_1t1s()
    happy = FlowPlan(y_in={("B1", "T1", 0): 400.0}, gamma={("B1", 0): 1},
                     y_out={("T1", 0): 200.0, ("T1", 1): 200.0},
                     sigma={("T1", 0): 1, ("T1", 1): 1},
                     v_unused={"B1": 0.0}, mis={0: 0.0, 1: 0.0})
    assert audit(toy, simulate(toy, happy), happy).ok

    def flags(inst, plan_):
        return set(audit(inst, simulate(inst, plan_), plan_).counts())

    cases = []
    # spec window (feed quality)
    narrow = replace(toy, runs=(replace(toy.runs[0], spec_bounds={"P": (40.0, 50.0)}),))
    cases.append((flags(narrow, happy), {"feed_spec_ub"}))
    # ratio window
    two = replace(
        toy, specs=(SpecDef("P"), SpecDef("Q")),
        tanks=(Tank("T1", 1000.0, 100.0, 500.0, {"P": 50.0, "Q": 10.0}, 0.10),),
        barges=(Barge("B1", 400.0, {"P": 60.0, "Q": 10.0}, (0, 1), 1000.0, ("T1",)),),
        runs=(Run("R1", (0, 1), 200.0, {"P": (0.0, 100.0), "Q": (5.0, 100.0)},
                  {("P", "Q"): (1.0, 2.0)}, 3000.0),))
    cases.append((flags(two, happy), {"feed_ratio_ub"}))
    # constant feed within a run
    wobble = FlowPlan(**{**happy.__dict__})
    wobble.y_out = {("T1", 0): 200.0, ("T1", 1): 150.0}
    wobble.mis = {0: 0.0, 1: 50.0}
    cases.append((flags(toy, wobble), {"run_const_feed"}))
    # feed share minimum
    trickle = FlowPlan(y_out={("T1", 0): 10.0, ("T1", 1): 10.0},
                       sigma={("T1", 0): 1, ("T1", 1): 1},
                       v_unused={"B1": 400.0}, mis={0: 190.0, 1: 190.0})
    cases.append((flags(toy, trickle), {"feed_share_lb"}))
    # flow outside the availability window
    narrow_window = replace(toy, barges=(replace(toy.barges[0], window=(0, 0)),))
    late = FlowPlan(y_in={("B1", "T1", 1): 100.0}, gamma={("B1", 1): 1},
                    v_unused={"B1": 300.0}, mis={0: 200.0, 1: 200.0})
    cases.append((flags(narrow_window, late), {"supply_window"}))
    # unload count per barge
    limit1 = replace(toy, barges=(replace(toy.barges[0], max_unloads=1),))
    twice = FlowPlan(y_in={("B1", "T1", 0): 100.0, ("B1", "T1", 1): 100.0},
                     gamma={("B1", 0): 1, ("B1", 1): 1},
                     v_unused={"B1": 200.0}, mis={0: 200.0, 1: 200.0})
    cases.append((flags(limit1, twice), {"barge_unload_limit"}))
    # unloads per day
    busy = replace(toy, ops=replace(toy.ops, max_unloads_per_day=1),
                   barges=toy.barges + (Barge("B2", 300.0, {"P": 55.0}, (0, 1), 800.0, ("T1",)),))
    both = FlowPlan(y_in={("B1", "T1", 0): 100.0, ("B2", "T1", 0): 100.0},
                    gamma={("B1", 0): 1, ("B2", 0): 1},
                    v_unused={"B1": 300.0, "B2": 200.0}, mis={0: 200.0, 1: 200.0})
    cases.append((flags(busy, both), {"daily_unload_limit"}))
    # daily minimum pull
    sip = FlowPlan(y_in={("B1", "T1", 0): 10.0}, gamma={("B1", 0): 1},
                   v_unused={"B1": 390.0}, mis={0: 200.0, 1: 200.0})
    cases.append((flags(toy, sip), {"unload_min_pct"}))
    # window between first and last unload
    spread = replace(toy, ops=replace(toy.ops, max_unload_gap=3, horizon=10),
                     barges=(replace(toy.barges[0], window=(0, 9)),),
                     runs=(replace(toy.runs[0], days=(0, 1)),))
    far = FlowPlan(y_in={("B1", "T1", 0): 100.0, ("B1", "T1", 8): 100.0},
                   gamma={("B1", 0): 1, ("B1", 8): 1},
                   v_unused={"B1": 200.0}, mis={0: 200.0, 1: 200.0})
    cases.append((flags(spread, far), {"unload_gap"}))
    for got, want in cases:
        assert got == want, (got, want)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _report(3, f"100 random plans satisfy all balance equations to 1e-9; "
               f"{len(cases)} counterexample families flagged exactly ({dt:.1f}s)")


def _crit4_slack(inst, eps_hat, grid_step):
    wmin = min(hi - lo for r in inst.runs for lo, hi in r.spec_bounds.values())
    ds = derive_sets(inst)
    demand_value = sum(ds.miss_penalty_by_day[t] * ds.demand(t) for t in ds.demand_days)
    return grid_step * value_target(inst) + min(1.0, eps_hat / wmin) * demand_value


def test_criterion_04_oracle_sandwich():
    t0 = time.perf_counter()
    levels = (2.0, 1.0, 0.5)
    n_monotone = 0
    for seed in range(20):
        inst = tiny_instance(seed)
        g = 0.125 if len(inst.barges) == 1 else 0.25
        oracle = grid_oracle(inst, g)
        objs = {}
        for eps in levels:
            m = build_center(inst, make_plans(inst, eps))
            res = solve(m, SolveOptions(mip_gap=1e-4, time_limit=120))
            assert res.status in ("optimal", "gap_reached"), res.status
            objs[eps] = res.objective
            assert abs(res.objective - oracle) <= _crit4_slack(inst, eps, g), (
                seed, eps, res.objective, oracle)
            if seed % 2 == 0:
                # wide windows: every oracle plan is representable
                assert res.objective >= oracle - 1e-4 * value_target(inst) - 1e-6
        tol = 3e-4 * value_target(inst) + 1e-6
        gaps = [abs(objs[e] - oracle) for e in levels]
        if gaps[1] <= gaps[0] + tol and gaps[2] <= gaps[1] + tol:
            n_monotone += 1
    dt = time.perf_counter() - t0
    assert n_monotone >= 18, n_monotone
    assert dt < 600.0
    _report(4, f"20 tiny instances inside oracle slack at eps in {levels}; "
               f"gap non-increasing on {n_monotone}/20 ({dt:.0f}s)")


def test_criterion_06_tightening_efficacy():
    t0 = time.perf_counter()
    eps_hat = 1.0
    clean_on = 0
    off_viol_small = 0
    off_viol_total = 0
    solved = 0
    for seed in range(30):
        inst = small_instance(seed, tight=True)
        results = {}
        for buffered in (True, False):
            opts = CenterOptions(tighten=buffered)
            m = build_center(inst, make_plans(inst, eps_hat), opts)
            res = solve(m, SolveOptions(mip_gap=0.005, time_limit=120))
            if res.status not in ("optimal", "gap_reached"):
                results[buffered] = None
                continue
            plan_ = extract_flow_plan(m, res)
            rep = audit(inst, simulate(inst, plan_), plan_)
            results[buffered] = rep
        if results.get(True) is None or results.get(False) is None:
            continue
        solved += 1
        spec_viols_on = results[True].by_tag("feed_spec_lb", "feed_spec_ub")
        if not spec_viols_on:
            clean_on += 1
        spec_viols_off = results[False].by_tag("feed_spec_lb", "feed_spec_ub")
        if spec_viols_off:
            off_viol_total += 1
            if max(v.magnitude for v in spec_viols_off) <= eps_hat / 2 + 1e-6:
                off_viol_small += 1
    dt = time.perf_counter() - t0
    assert solved >= 30
    assert clean_on >= 0.9 * solved, (clean_on, solved)
    if off_viol_total:
        assert off_viol_small >= 0.9 * off_viol_total, (off_viol_small, off_viol_total)
    assert dt < 600.0
    _report(6, f"buffers on: {clean_on}/{solved} audits clean; buffers off: "
               f"{off_viol_small}/{off_viol_total} violating runs within eps/2 ({dt:.0f}s)")


def test_criterion_07_rolling_monotonicity():
    t0 = time.perf_counter()
    gap = 0.005
    for seed in range(10):
        inst = rolling_instance(seed, reps=2)
        captured = []

        def grab(step, model, res):
            captured.append((
                {v.col: res.values[v.col] for v in model.vars
                 if v.kind in ("gamma", "sigma", "alpha")},
                {v.col for v in model.vars
                 if v.kind in ("gamma", "sigma", "alpha") and v.lo == v.hi},
            ))

        params = RollParams(solve=SolveOptions(mip_gap=gap, time_limit=900))
        res = roll_full(inst, fixed_periods(inst.horizon, 7), params,
                        lambda i: build_center(i, make_plans(i, 1.0)), on_step=grab)
        objs = [s.objective for s in res.steps]
        for a, b in zip(objs, objs[1:]):
            assert b <= a / (1 - gap) + 1e-6, (seed, objs)
        for i, (vals_i, fixed_i) in enumerate(captured):
            for vals_j, fixed_j in captured[i + 1:]:
                for col in fixed_i:
                    assert col in fixed_j
                    assert vals_j[col] == vals_i[col]
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(7, f"10 rolls: step objectives non-increasing within gap; frozen "
               f"prefixes exact ({dt:.0f}s)")


def test_criterion_08_period_generators():
    periods = fixed_periods(30, 4)
    assert len(periods) == 8
    assert (periods[-1].start, periods[-1].end) == (28, 30)
    assert len(periods[-1]) == 2
    got = [(p.start, p.end) for p in
           run_based_periods([(0, 3), (5, 5), (7, 13), (18, 24), (25, 29)], 30, 7)]
    assert got == [(0, 7), (7, 14), (14, 18), (18, 25), (25, 30)]
    _report(8, "fixed 30/4 -> 8 periods ending [28,30); run-based layout exact")


def test_criterion_09_center_vs_mccormick():
    t0 = time.perf_counter()
    center_times, mcc_times = [], []
    params = RollParams(solve=SolveOptions(mip_gap=0.005, time_limit=1800))
    for seed in range(10):
        inst = rolling_instance(seed, reps=3)   # 45 days
        assert inst.horizon >= 45
        periods = fixed_periods(inst.horizon, 7)
        t1 = time.perf_counter()
        res_c = roll_full(inst, periods, params,
                          lambda i: build_center(i, make_plans(i, 1.0)))
        center_times.append(time.perf_counter() - t1)
        t1 = time.perf_counter()
        res_m = roll_full(inst, periods, params,
                          lambda i: build_mccormick(i, make_plans(i, 1.0)))
        mcc_times.append(time.perf_counter() - t1)
        assert res_c.objective > 0 and res_m.objective > 0
    med_c = statistics.median(center_times)
    med_m = statistics.median(mcc_times)
    assert med_c <= med_m, (med_c, med_m)

    # flat, fine precision: objectives agree within the MIP gap
    gap = 0.005
    for seed in (0, 2, 4, 6, 8):
        inst = tiny_instance(seed)
        rc = solve(build_center(inst, make_plans(inst, 0.25)),
                   SolveOptions(mip_gap=gap, time_limit=300))
        rm = solve(build_mccormick(inst, make_plans(inst, 0.25)),
                   SolveOptions(mip_gap=gap, time_limit=300))
        assert rc.status in ("optimal", "gap_reached")
        assert rm.status in ("optimal", "gap_reached")
        assert abs(rc.objective - rm.objective) <= 1.02 * gap * max(rc.objective, rm.objective) + 1e-6
    dt = time.perf_counter() - t0
    assert dt < 600.0
    _report(9, f"rolling H=45: median wall-time {med_c:.1f}s (center) <= "
               f"{med_m:.1f}s (mccormick); flat eps=0.25 objectives within gap ({dt:.0f}s)")


def test_criterion_10_loss_identity():
    toy = toy_1t1s()
    assert loss(toy, empty_plan(toy)).pct_loss == pytest.approx(100.0, abs=1e-9)
    served = FlowPlan(y_in={("B1", "T1", 0): 400.0}, gamma={("B1", 0): 1},
                      y_out={("T1", 0): 200.0, ("T1", 1): 200.0},
                      sigma={("T1", 0): 1, ("T1", 1): 1},
                      v_unused={"B1": 0.0}, mis={0: 0.0, 1: 0.0})
    assert loss(toy, served).pct_loss == pytest.approx(0.0, abs=1e-9)
    # one barge fully unused, demand fully met
    inst = replace(
        toy,
        tanks=(Tank("T1", 10000.0, 0.0, 5000.0, {"P": 50.0}, 0.10),),
        barges=(Barge("B1", 1240.0, {"P": 50.0}, (0, 1), 1000.0, ("T1",)),),
    )
    D = 400.0
    plan_ = FlowPlan(y_out={("T1", 0): 200.0, ("T1", 1): 200.0},
                     sigma={("T1", 0): 1, ("T1", 1): 1},
                     v_unused={"B1": 1240.0}, mis={0: 0.0, 1: 0.0})
    rep = loss(inst, plan_)
    want = 100.0 * (1000.0 * 1240.0) / (1000.0 * 1240.0 + 3000.0 * D)
    assert rep.pct_loss == pytest.approx(want, abs=1e-9)
    assert rep.val_target == pytest.approx(1000.0 * 1240.0 + 3000.0 * D, abs=1e-9)
    hand = plan_objective(inst, plan_)
    assert hand == pytest.approx(3000.0 * D, abs=1e-9)
    _report(10, "loss metric matches hand arithmetic to 1e-9 on three plans")
