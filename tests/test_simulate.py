"""Simulator semantics, audit coverage, loss metric, brute-force oracle."""

import importlib.util
import itertools
import json
import math
import random
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import blendplan
from blendplan.cli import main
from blendplan.instance import (Barge, Instance, OpsParams, Run, SpecDef, Tank, derive_sets,
                                write_instance)
from blendplan.simulate import (VOL_TOL, FlowPlan, PlanInconsistencyError, audit, empty_plan,
                                grid_oracle, loss, plan_from_dict, plan_objective,
                                simulate, value_target, write_plan)
from conftest import tiny_instance, toy_1t1s


def _single_tank(v_init=0.0, f_init=0.0, v_min=0.0, v_max=5000.0):
    return Instance(
        specs=(SpecDef("P"),),
        barges=(
            Barge("B1", 2000.0, {"P": 50.0}, (0, 3), 1000.0, ("T1",)),
            Barge("B2", 2000.0, {"P": 20.0}, (0, 3), 800.0, ("T1",)),
        ),
        tanks=(Tank("T1", v_max, v_min, v_init, {"P": f_init}, 0.10),),
        runs=(Run("R1", (1, 2), 100.0, {"P": (0.0, 100.0)}, {}, 3000.0),),
        ops=OpsParams(2, 2, 7, 0.10, 4),
    )


def test_fill_empty_tank_takes_source_spec():
    inst = _single_tank()
    plan = FlowPlan(y_in={("B1", "T1", 0): 100.0}, gamma={("B1", 0): 1})
    tr = simulate(inst, plan)
    assert tr.f[("T1", "P", 0)] == 50.0
    assert tr.v_mid[("T1", 0)] == 100.0


def test_equal_mix_is_midpoint():
    inst = _single_tank()
    plan = FlowPlan(y_in={("B1", "T1", 0): 100.0, ("B2", "T1", 0): 100.0},
                    gamma={("B1", 0): 1, ("B2", 0): 1})
    tr = simulate(inst, plan)
    assert tr.f[("T1", "P", 0)] == pytest.approx(35.0)


def test_blend_arithmetic_volume_weighted():
    inst = _single_tank(v_init=1179.0, f_init=10.0)
    inst = replace(inst, barges=(Barge("B1", 1240.0, {"P": 20.0}, (0, 3), 1000.0, ("T1",)),))
    plan = FlowPlan(y_in={("B1", "T1", 0): 1240.0}, gamma={("B1", 0): 1})
    tr = simulate(inst, plan)
    assert tr.f[("T1", "P", 0)] == pytest.approx((11790.0 + 24800.0) / 2419.0)
    assert tr.f[("T1", "P", 0)] == pytest.approx(15.12608516)


def test_spec_carried_on_empty_day():
    inst = _single_tank(v_init=200.0, f_init=33.0)
    tr = simulate(inst, FlowPlan())
    for t in range(4):
        assert tr.f[("T1", "P", t)] == 33.0
        assert tr.v_end[("T1", t)] == 200.0


def test_feed_spec_is_outflow_weighted():
    inst = replace(
        _single_tank(),
        tanks=(Tank("T1", 1000.0, 0.0, 100.0, {"P": 10.0}, 0.10),
               Tank("T2", 1000.0, 0.0, 300.0, {"P": 40.0}, 0.10)),
        barges=(Barge("B1", 100.0, {"P": 50.0}, (0, 0), 1000.0, ("T1", "T2")),),
    )
    plan = FlowPlan(y_out={("T1", 1): 30.0, ("T2", 1): 70.0},
                    sigma={("T1", 1): 1, ("T2", 1): 1})
    tr = simulate(inst, plan)
    assert tr.feed_spec[("P", 1)] == pytest.approx((30 * 10 + 70 * 40) / 100)


def test_overdraw_raises():
    inst = _single_tank(v_init=50.0)
    plan = FlowPlan(y_out={("T1", 1): 100.0}, sigma={("T1", 1): 1})
    with pytest.raises(PlanInconsistencyError):
        simulate(inst, plan)


def test_feed_from_empty_tank_raises():
    inst = _single_tank(v_init=0.0)
    plan = FlowPlan(y_out={("T1", 1): 0.5}, sigma={("T1", 1): 1})
    with pytest.raises(PlanInconsistencyError):
        simulate(inst, plan)


def test_negative_feed_raises():
    inst = _single_tank(v_init=500.0)
    plan = FlowPlan(y_out={("T1", 1): -1.0}, sigma={("T1", 1): 1})
    with pytest.raises(PlanInconsistencyError, match="negative feed from T1 on day 1"):
        simulate(inst, plan)


@pytest.mark.parametrize("field, key, value, day", [
    ("sigma", ("T1", 99), 1, 99), ("mis", 99, 5.0, 99), ("y_out", ("T1", -1), 0.0, -1),
    ("gamma", ("B1", 30), 0, 30), ("y_in", ("B1", "T1", 30), 0.0, 30),
])
def test_a_plan_day_outside_the_horizon_is_refused(sample, field, key, value, day):
    # a 30-day instance: an entry on day 99 used to audit clean
    plan = empty_plan(sample)
    getattr(plan, field)[key] = value
    with pytest.raises(PlanInconsistencyError,
                       match=f"^{field} names day {day}, which the instance lacks$"):
        audit(sample, simulate(sample, plan), plan)


def test_feed_from_a_tank_holding_float_noise_raises():
    # within VOL_TOL of the available volume, so no overdraw, but nothing to draw
    inst = _single_tank(v_init=1e-6)
    plan = FlowPlan(y_out={("T1", 1): 1.5e-6}, sigma={("T1", 1): 1})
    with pytest.raises(PlanInconsistencyError, match="tank T1 day 1: feed from an empty tank"):
        simulate(inst, plan)


def _random_consistent_plan(inst, rng) -> FlowPlan:
    ds = derive_sets(inst)
    plan = FlowPlan()
    state = {k.id: k.v_init for k in inst.tanks}
    for t in range(inst.horizon):
        for b in inst.barges:
            if b.window[0] <= t <= b.window[1] and rng.random() < 0.4:
                k = str(rng.choice(b.allowed_tanks))
                already = sum(v for (s, _, tt), v in plan.y_in.items() if s == b.id)
                vol = min(b.volume - already, float(rng.uniform(10.0, b.volume / 2)))
                if vol > 1.0:
                    plan.y_in[(b.id, k, t)] = vol
                    plan.gamma[(b.id, t)] = 1
                    state[k] += vol
        if ds.demand(t) > 0:
            for k in inst.tanks:
                if rng.random() < 0.6 and state[k.id] > 5.0:
                    out = min(state[k.id] * 0.5, float(rng.uniform(5.0, ds.demand(t))))
                    plan.y_out[(k.id, t)] = out
                    plan.sigma[(k.id, t)] = 1
                    state[k.id] -= out
    for b in inst.barges:
        plan.v_unused[b.id] = b.volume - plan.unloaded_total(b.id)
    for t in ds.demand_days:
        served = sum(plan.y_out.get((k.id, t), 0.0) for k in inst.tanks)
        plan.mis[t] = ds.demand(t) - served
    return plan


def test_conservation_properties_random_plans():
    rng = np.random.default_rng(4)
    for trial in range(40):
        inst = tiny_instance(trial % 20)
        plan = _random_consistent_plan(inst, rng)
        tr = simulate(inst, plan)
        total_in = sum(plan.y_in.values())
        total_out = sum(plan.y_out.values())
        delta = sum(tr.v_end[(k.id, inst.horizon - 1)] - k.v_init for k in inst.tanks)
        assert total_in - total_out == pytest.approx(delta, rel=1e-9, abs=1e-9)
        # per-tank spec mass ledger
        for k in inst.tanks:
            for q in inst.spec_ids():
                mass = k.specs_init[q] * k.v_init
                for t in range(inst.horizon):
                    mass += sum(inst.barge(s).specs[q] * v
                                for (s, kk, tt), v in plan.y_in.items()
                                if kk == k.id and tt == t)
                    mass -= tr.f[(k.id, q, t)] * plan.y_out.get((k.id, t), 0.0)
                    end_mass = tr.f[(k.id, q, t)] * tr.v_end[(k.id, t)]
                    assert end_mass == pytest.approx(mass, rel=1e-9, abs=1e-6)


def test_empty_plan_audit_clean_and_all_missed(toy):
    plan = empty_plan(toy)
    tr = simulate(toy, plan)
    rep = audit(toy, tr, plan)
    assert rep.ok
    assert loss(toy, plan).pct_loss == 100.0


# -- audit counterexamples, one per rule family ------------------------------


def _base_feasible_plan(inst):
    """Unload everything on day 0, feed both days at full demand."""
    plan = FlowPlan(
        y_in={("B1", "T1", 0): 400.0},
        gamma={("B1", 0): 1},
        y_out={("T1", 0): 200.0, ("T1", 1): 200.0},
        sigma={("T1", 0): 1, ("T1", 1): 1},
        v_unused={"B1": 0.0},
        mis={0: 0.0, 1: 0.0},
    )
    return plan


def test_audit_clean_on_feasible_plan(toy):
    plan = _base_feasible_plan(toy)
    rep = audit(toy, simulate(toy, plan), plan)
    assert rep.ok, rep.violations


def test_audit_flags_feed_spec_bounds(toy):
    toy = replace(toy, runs=(replace(toy.runs[0], spec_bounds={"P": (40.0, 50.0)}),))
    plan = _base_feasible_plan(toy)   # blend lands at 54.44
    rep = audit(toy, simulate(toy, plan), plan)
    assert set(rep.counts()) == {"feed_spec_ub"}
    assert rep.worst_spec_violation == pytest.approx(400 / 90, rel=1e-6)


def test_audit_flags_ratio_bounds():
    inst = toy_1t1s()
    inst = replace(
        inst,
        specs=(SpecDef("P"), SpecDef("Q")),
        tanks=(Tank("T1", 1000.0, 100.0, 500.0, {"P": 50.0, "Q": 10.0}, 0.10),),
        barges=(Barge("B1", 400.0, {"P": 60.0, "Q": 10.0}, (0, 1), 1000.0, ("T1",)),),
        runs=(Run("R1", (0, 1), 200.0, {"P": (0.0, 100.0), "Q": (5.0, 100.0)},
                  {("P", "Q"): (1.0, 2.0)}, 3000.0),),
    )
    plan = _base_feasible_plan(inst)   # P/Q ratio well above 2
    rep = audit(inst, simulate(inst, plan), plan)
    assert set(rep.counts()) == {"feed_ratio_ub"}
    v = rep.by_tag("feed_ratio_ub")[0]
    assert v.magnitude > 2.0   # ratio is ~5.4, bound 2 -> excess > 2 in ratio units


def _ratio_instance(q_init, ratio_bounds):
    """``toy`` with a second spec Q and a P/Q ratio window."""
    inst = toy_1t1s()
    return replace(
        inst,
        specs=(SpecDef("P"), SpecDef("Q")),
        tanks=(Tank("T1", 1000.0, 100.0, 500.0, {"P": 50.0, "Q": q_init}, 0.10),),
        barges=(Barge("B1", 400.0, {"P": 60.0, "Q": q_init}, (0, 1), 1000.0, ("T1",)),),
        runs=(Run("R1", (0, 1), 200.0, {"P": (0.0, 100.0), "Q": (5.0, 100.0)},
                  {("P", "Q"): ratio_bounds}, 3000.0),),
    )


def test_audit_flags_feed_spec_lb(toy):
    toy = replace(toy, runs=(replace(toy.runs[0], spec_bounds={"P": (55.0, 70.0)}),))
    plan = _base_feasible_plan(toy)   # blend lands at 54.44
    rep = audit(toy, simulate(toy, plan), plan)
    assert set(rep.counts()) == {"feed_spec_lb"}
    assert rep.worst_spec_violation == pytest.approx(50 / 90, rel=1e-6)


def test_audit_flags_ratio_below_its_window():
    inst = _ratio_instance(10.0, (6.0, 10.0))
    plan = _base_feasible_plan(inst)   # P/Q ratio 54.44 / 10
    rep = audit(inst, simulate(inst, plan), plan)
    assert set(rep.counts()) == {"feed_ratio_lb"}
    assert rep.by_tag("feed_ratio_lb")[0].magnitude == pytest.approx(6.0 - 49 / 9, rel=1e-6)


def test_audit_flags_ratio_with_a_zero_denominator():
    # a feed without Q has no P/Q ratio; it also breaks Q's own window,
    # whose lower bound validation keeps positive
    inst = _ratio_instance(0.0, (1.0, 2.0))
    plan = _base_feasible_plan(inst)
    rep = audit(inst, simulate(inst, plan), plan)
    assert set(rep.counts()) == {"feed_ratio_ub", "feed_spec_lb"}
    assert [(v.index, v.magnitude) for v in rep.by_tag("feed_ratio_ub")] == [
        (("P", "Q", 0), math.inf), (("P", "Q", 1), math.inf)]
    assert {v.index for v in rep.by_tag("feed_spec_lb")} == {("Q", 0), ("Q", 1)}


def test_audit_holds_a_ratio_of_a_feed_with_neither_spec():
    # 0/0: both model rows, num - lo*den >= 0 and num - hi*den <= 0, hold at
    # 0; only Q's own window breaks
    inst = _ratio_instance(0.0, (1.0, 2.0))
    tank, barge = inst.tanks[0], inst.barges[0]
    inst = replace(inst, tanks=(replace(tank, specs_init={"P": 0.0, "Q": 0.0}),),
                   barges=(replace(barge, specs={"P": 0.0, "Q": 0.0}),))
    plan = _base_feasible_plan(inst)
    rep = audit(inst, simulate(inst, plan), plan)
    assert rep.counts() == {"feed_spec_lb": 2}
    assert {v.index for v in rep.by_tag("feed_spec_lb")} == {("Q", 0), ("Q", 1)}


def test_audit_file_of_a_zero_denominator_is_strict_json(tmp_path, capsys):
    # the infinite magnitude is written as null, not as the non-JSON Infinity
    ratio = _ratio_instance(0.0, (1.0, 2.0))
    inst, plan = tmp_path / "inst.json", tmp_path / "plan.json"
    write_instance(ratio, inst)
    write_plan(_base_feasible_plan(ratio), plan)
    out = tmp_path / "audit.json"
    assert main(["audit", "--instance", str(inst), "--plan", str(plan), "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    rep = json.loads(out.read_text(), parse_constant=refuse)
    assert rep["counts"] == {"feed_ratio_ub": 2, "feed_spec_lb": 2}
    assert [v["magnitude"] for v in rep["violations"] if v["tag"] == "feed_ratio_ub"] == [
        None, None]


def test_audit_flags_nonconstant_run_feed(toy):
    plan = _base_feasible_plan(toy)
    plan.y_out[("T1", 1)] = 150.0
    plan.mis[1] = 50.0
    rep = audit(toy, simulate(toy, plan), plan)
    assert "run_const_feed" in rep.counts()


def test_audit_flags_feed_share(toy):
    plan = _base_feasible_plan(toy)
    plan.y_out = {("T1", 0): 10.0, ("T1", 1): 10.0}   # below 10% of 200
    plan.mis = {0: 190.0, 1: 190.0}
    rep = audit(toy, simulate(toy, plan), plan)
    assert set(rep.counts()) == {"feed_share_lb"}
    assert rep.by_tag("feed_share_lb")[0].magnitude == pytest.approx(10.0)


def test_audit_flags_sigma_gate(toy):
    plan = _base_feasible_plan(toy)
    plan.sigma = {("T1", 0): 0, ("T1", 1): 1}
    rep = audit(toy, simulate(toy, plan), plan)
    assert set(rep.counts()) == {"feed_share_ub"}


def test_audit_flags_unload_counts():
    inst = toy_1t1s()
    inst = replace(inst, barges=(replace(inst.barges[0], window=(0, 1), max_unloads=1),))
    plan = FlowPlan(
        y_in={("B1", "T1", 0): 100.0, ("B1", "T1", 1): 100.0},
        gamma={("B1", 0): 1, ("B1", 1): 1},
        v_unused={"B1": 200.0}, mis={0: 200.0, 1: 200.0},
    )
    rep = audit(inst, simulate(inst, plan), plan)
    assert "barge_unload_limit" in rep.counts()


def test_audit_flags_daily_limit():
    base = toy_1t1s()
    inst = replace(
        base,
        barges=(base.barges[0],
                Barge("B2", 300.0, {"P": 55.0}, (0, 1), 800.0, ("T1",))),
        ops=replace(base.ops, max_unloads_per_day=1),
    )
    plan = FlowPlan(
        y_in={("B1", "T1", 0): 100.0, ("B2", "T1", 0): 100.0},
        gamma={("B1", 0): 1, ("B2", 0): 1},
        v_unused={"B1": 300.0, "B2": 200.0}, mis={0: 200.0, 1: 200.0},
    )
    rep = audit(inst, simulate(inst, plan), plan)
    assert "daily_unload_limit" in rep.counts()


def test_audit_flags_min_unload_pct(toy):
    plan = FlowPlan(y_in={("B1", "T1", 0): 10.0}, gamma={("B1", 0): 1},
                    v_unused={"B1": 390.0}, mis={0: 200.0, 1: 200.0})
    rep = audit(toy, simulate(toy, plan), plan)
    assert set(rep.counts()) == {"unload_min_pct"}
    assert rep.by_tag("unload_min_pct")[0].magnitude == pytest.approx(30.0)


def test_audit_flags_unload_gap():
    base = toy_1t1s()
    inst = replace(base, ops=replace(base.ops, max_unload_gap=3, horizon=10),
                   barges=(replace(base.barges[0], window=(0, 9)),),
                   runs=(replace(base.runs[0], days=(0, 1)),))
    plan = FlowPlan(y_in={("B1", "T1", 0): 100.0, ("B1", "T1", 8): 100.0},
                    gamma={("B1", 0): 1, ("B1", 8): 1},
                    v_unused={"B1": 200.0}, mis={0: 200.0, 1: 200.0})
    rep = audit(inst, simulate(inst, plan), plan)
    assert "unload_gap" in rep.counts()
    assert rep.by_tag("unload_gap")[0].magnitude == 5


def test_audit_flags_off_window_flow(toy):
    plan = FlowPlan(y_in={("B1", "T1", 1): 100.0}, gamma={("B1", 1): 1},
                    v_unused={"B1": 300.0}, mis={0: 200.0, 1: 200.0})
    inst = replace(toy, barges=(replace(toy.barges[0], window=(0, 0)),))
    rep = audit(inst, simulate(inst, plan), plan)
    assert "supply_window" in rep.counts()


@pytest.mark.parametrize("volume", [VOL_TOL / 2, VOL_TOL])
def test_audit_passes_float_noise_outside_a_barge_window(toy, volume):
    # a flow at or below VOL_TOL is noise: no window, gate or total breaks
    inst = replace(toy, barges=(replace(toy.barges[0], window=(0, 0)),))
    plan = empty_plan(inst)
    plan.y_in[("B1", "T1", 1)] = volume
    rep = audit(inst, simulate(inst, plan), plan)
    assert rep.ok and rep.violations == []


def test_audit_flags_flow_into_a_tank_the_barge_may_not_use(toy):
    inst = replace(toy, tanks=toy.tanks + (replace(toy.tanks[0], id="T2"),))
    plan = FlowPlan(y_in={("B1", "T1", 0): 100.0, ("B1", "T2", 0): 100.0},
                    gamma={("B1", 0): 1}, v_unused={"B1": 200.0}, mis={0: 200.0, 1: 200.0})
    rep = audit(inst, simulate(inst, plan), plan)
    assert [(v.tag, v.index, v.magnitude) for v in rep.violations] == [
        ("supply_window", ("B1", "T2", 0), 100.0)]


def test_audit_flags_feed_on_a_day_without_demand(toy):
    inst = replace(toy, ops=replace(toy.ops, horizon=3))
    plan = FlowPlan(y_out={("T1", 2): 50.0}, sigma={("T1", 2): 1},
                    v_unused={"B1": 400.0}, mis={0: 200.0, 1: 200.0})
    rep = audit(inst, simulate(inst, plan), plan)
    assert [(v.tag, v.index, v.magnitude) for v in rep.violations] == [
        ("demand_balance", (2,), 50.0)]


def test_audit_flags_flow_without_unload_mark(toy):
    plan = FlowPlan(y_in={("B1", "T1", 0): 100.0}, gamma={},
                    v_unused={"B1": 300.0}, mis={0: 200.0, 1: 200.0})
    rep = audit(toy, simulate(toy, plan), plan)
    assert "unload_flow_gate" in rep.counts()


def test_audit_flags_inventory_bounds(toy):
    # overfill on day 0: 500 + 600 > 1000
    inst = replace(toy, barges=(replace(toy.barges[0], volume=700.0),))
    plan = FlowPlan(y_in={("B1", "T1", 0): 600.0}, gamma={("B1", 0): 1},
                    v_unused={"B1": 100.0}, mis={0: 200.0, 1: 200.0})
    rep = audit(inst, simulate(inst, plan), plan)
    assert "inv_ub" in rep.counts()
    # draw below the floor
    plan2 = FlowPlan(y_out={("T1", 0): 200.0, ("T1", 1): 250.0},
                     sigma={("T1", 0): 1, ("T1", 1): 1},
                     v_unused={"B1": 700.0}, mis={0: 0.0, 1: -50.0})
    plan2.mis = {0: 0.0, 1: 0.0}
    inst2 = replace(inst, runs=(replace(inst.runs[0], daily_demand=250.0),))
    plan2.y_out[("T1", 0)] = 250.0
    rep2 = audit(inst2, simulate(inst2, plan2), plan2)
    assert "inv_lb" in rep2.counts()


# -- loss metric --------------------------------------------------------------


def test_loss_zero_when_everything_served(toy):
    plan = _base_feasible_plan(toy)
    rep = loss(toy, plan)
    assert rep.pct_loss == 0.0
    assert rep.val_target == 1000.0 * 400 + 3000.0 * 400


def test_loss_single_unused_barge_formula():
    inst = _single_tank(v_init=5000.0, f_init=50.0, v_max=10000.0)
    inst = replace(inst, barges=(Barge("B1", 1240.0, {"P": 50.0}, (0, 3), 1000.0, ("T1",)),))
    ds = derive_sets(inst)
    D = sum(ds.demand(t) for t in ds.demand_days)
    plan = FlowPlan(y_out={("T1", 1): 100.0, ("T1", 2): 100.0},
                    sigma={("T1", 1): 1, ("T1", 2): 1},
                    v_unused={"B1": 1240.0}, mis={1: 0.0, 2: 0.0})
    rep = loss(inst, plan)
    want = 100.0 * (1000.0 * 1240.0) / (1000.0 * 1240.0 + 3000.0 * D)
    assert rep.pct_loss == pytest.approx(want, rel=1e-12)


def test_loss_hundred_percent_when_nothing_happens(toy):
    assert loss(toy, empty_plan(toy)).pct_loss == 100.0


# -- a plan without v_unused or mis entries ----------------------------------


def test_missing_entries_are_the_remainder_the_flows_leave(toy):
    plan = _base_feasible_plan(toy)
    plan.y_in[("B1", "T1", 0)] = 300.0
    plan.y_out[("T1", 1)] = 150.0
    stated = replace(plan, v_unused={"B1": 100.0}, mis={0: 0.0, 1: 50.0})
    bare = replace(plan, v_unused={}, mis={})
    assert loss(toy, bare) == loss(toy, stated)
    assert audit(toy, simulate(toy, bare), bare).counts() == \
        audit(toy, simulate(toy, stated), stated).counts()


def test_overdrawn_barge_without_entries_is_flagged(toy):
    # 450 t unloaded from a 400 t barge, both demand days served, no entries:
    # the missing v_unused is 0, never -50, so the supply total is 50 over
    plan = replace(_base_feasible_plan(toy), y_in={("B1", "T1", 0): 450.0},
                   v_unused={}, mis={})
    rep = audit(toy, simulate(toy, plan), plan)
    assert [(v.tag, v.magnitude) for v in rep.violations] == [("supply_total", 50.0)]
    assert loss(toy, plan).pct_loss == 0.0


def test_stated_negative_entries_are_flagged_with_their_size(toy):
    # each total balances, but a negative entry is no plan: the audit flags it
    plan = replace(_base_feasible_plan(toy), y_in={("B1", "T1", 0): 450.0},
                   v_unused={"B1": -50.0})
    rep = audit(toy, simulate(toy, plan), plan)
    assert [(v.tag, v.magnitude) for v in rep.violations] == [("supply_total", 50.0)]
    plan = _base_feasible_plan(toy)
    plan.y_out[("T1", 0)] = 250.0
    plan.mis[0] = -50.0
    rep = audit(toy, simulate(toy, plan), plan)
    assert [(v.index, v.magnitude) for v in rep.by_tag("demand_balance")] == [((0,), 50.0)]
    assert all(v.magnitude > 0 for v in rep.violations)


def test_plan_json_round_trip(toy):
    plan = _base_feasible_plan(toy)
    back = plan_from_dict(json.loads(json.dumps(plan.to_dict())))
    assert back == plan


# -- brute-force oracle --------------------------------------------------------


def test_oracle_guard():
    inst = tiny_instance(0)
    big = replace(inst, ops=replace(inst.ops, horizon=10),
                  runs=(replace(inst.runs[0], days=(1, 8)),))
    with pytest.raises(ValueError):
        grid_oracle(big)


@pytest.mark.parametrize("grid_step", [0.0, 1.5])
def test_oracle_refuses_a_grid_step_outside_0_1(grid_step):
    with pytest.raises(ValueError, match=r"grid_step must be in \(0, 1\]"):
        grid_oracle(tiny_instance(0), grid_step)


def test_loss_refuses_an_instance_of_zero_attainable_value():
    toy = toy_1t1s()
    inst = replace(toy, barges=(replace(toy.barges[0], unload_penalty=0.0),),
                   runs=(replace(toy.runs[0], miss_penalty=0.0),))
    with pytest.raises(ValueError, match="zero attainable value"):
        loss(inst, empty_plan(inst))


def test_oracle_keeps_the_daily_unload_limit():
    # both barges can unload only on day 1, one barge a day: the best plan
    # is the better single-barge plan (two a day would reach 2500000)
    inst = tiny_instance(3)
    inst = replace(inst, barges=tuple(replace(b, window=(1, 1)) for b in inst.barges),
                   ops=replace(inst.ops, max_unloads_per_day=1))
    singles = [grid_oracle(replace(inst, barges=(b,)), 0.25) for b in inst.barges]
    assert grid_oracle(inst, 0.25) == max(singles) == 2200000.0


def _no_feasible_flow():
    # barge too big for the tank headroom and min-pct too high to split
    inst = _single_tank(v_init=900.0, f_init=50.0, v_max=1000.0, v_min=100.0)
    return replace(inst, barges=(Barge("B1", 2000.0, {"P": 50.0}, (0, 1), 1000.0, ("T1",),
                                       None, 1.0),),
                   runs=(Run("R1", (1, 1), 100.0, {"P": (0.0, 10.0)}, {}, 3000.0),))


def _exactly_consumable():
    inst = _single_tank(v_init=400.0, f_init=50.0, v_min=0.0, v_max=1000.0)
    return replace(inst,
                   barges=(Barge("B1", 400.0, {"P": 50.0}, (0, 0), 1000.0, ("T1",)),),
                   runs=(Run("R1", (1, 2), 400.0, {"P": (40.0, 60.0)}, {}, 3000.0),))


def test_oracle_no_feasible_flow_returns_all_miss():
    inst = _no_feasible_flow()
    # spec window [0,10] makes any feed infeasible; unload of 2000 overflows
    val = grid_oracle(inst, 0.5)
    assert val == pytest.approx(plan_objective(inst, empty_plan(inst)))


def test_oracle_exactly_consumable_single_run():
    inst = _exactly_consumable()
    val = grid_oracle(inst, 0.25)
    assert val == pytest.approx(value_target(inst))   # everything attainable


def test_oracle_monotone_in_grid_step():
    inst = tiny_instance(5)
    vals = [grid_oracle(inst, g) for g in (0.5, 0.25, 0.125)]
    assert vals[0] <= vals[1] + 1e-9
    assert vals[1] <= vals[2] + 1e-9


# values returned by the unpruned search (every candidate simulated and
# audited), at the grid steps acceptance criterion 4 uses, plus two coarse
# grids whose best plan falls short of the value target
@pytest.mark.parametrize("seed, grid_step, want", [
    (0, 0.125, 1650000.0), (1, 0.125, 1650000.0), (2, 0.125, 1650000.0),
    (3, 0.25, 2500000.0), (4, 0.125, 1750000.0), (5, 0.125, 1750000.0),
    (3, 0.5, 2400000.0), (12, 0.5, 1200000.0),
])
def test_oracle_values_pinned(seed, grid_step, want):
    assert grid_oracle(tiny_instance(seed), grid_step) == want


def _levels(grid_step):
    return [round(j * grid_step, 12) for j in range(1, int(round(1.0 / grid_step)) + 1)]


def _unload_choices(inst, grid_step):
    """Every barge-events choice on ``grid_oracle``'s grid, in product order:
    (barge share of the missed value, y_in, gamma, v_unused)."""
    per_barge = []
    for b in inst.barges:
        fracs = [f for f in _levels(grid_step) if f >= inst.barge_min_unload_pct(b) - 1e-12]
        events = [[]]
        for n in range(1, inst.barge_max_unloads(b) + 1):
            for days in itertools.combinations(range(b.window[0], b.window[1] + 1), n):
                for fr, tanks in itertools.product(itertools.product(fracs, repeat=n),
                                                   itertools.product(b.allowed_tanks, repeat=n)):
                    if (days[-1] - days[0] <= inst.ops.max_unload_gap
                            and sum(fr) <= 1.0 + 1e-12):
                        events.append(list(zip(days, tanks, fr)))
        per_barge.append(events)
    out = []
    for events in itertools.product(*per_barge):
        days = [t for ev in events for t, _, _ in ev]
        if any(days.count(t) > inst.ops.max_unloads_per_day for t in days):
            continue
        y_in, gamma, v_unused = {}, {}, {}
        for b, ev in zip(inst.barges, events):
            used = 0.0
            for t, k, fr in ev:
                y_in[(b.id, k, t)] = y_in.get((b.id, k, t), 0.0) + fr * b.volume
                gamma[(b.id, t)] = 1
                used += fr * b.volume
            v_unused[b.id] = b.volume - used
        out.append((sum(b.unload_penalty * v_unused[b.id] for b in inst.barges),
                    y_in, gamma, v_unused))
    return out


def _feed_choices(inst, grid_step):
    """Every feed choice on ``grid_oracle``'s grid, in product order:
    (demand share of the missed value, y_out, sigma, mis)."""
    ds = derive_sets(inst)
    shares = [c for c in itertools.product(*(
        [0.0] + [x for x in _levels(grid_step) if x >= t.min_feed_pct - 1e-12]
        for t in inst.tanks)) if sum(c) <= 1.0 + 1e-12]
    out = []
    for feed in itertools.product(shares, repeat=len(inst.runs)):
        y_out, sigma, mis = {}, {}, {}
        for r, c in zip(inst.runs, feed):
            for t in range(r.days[0], r.days[1] + 1):
                for tank, share in zip(inst.tanks, c):
                    if share > 0.0:
                        y_out[(tank.id, t)] = share * r.daily_demand
                        sigma[(tank.id, t)] = 1
                mis[t] = r.daily_demand * (1.0 - sum(c))
        out.append((sum(ds.miss_penalty_by_day[t] * mis[t] for t in ds.demand_days),
                    y_out, sigma, mis))
    return out


def _plan(pair):
    (_, y_in, gamma, v_unused), (_, y_out, sigma, mis) = pair
    return FlowPlan(y_in, y_out, gamma, sigma, v_unused, mis)


def _oracle_by_definition(inst, grid_step):
    """``grid_oracle`` by its definition: every candidate on the grid
    simulated and audited, in no order and with no pruning; the greatest
    ``plan_objective`` of a clean one."""
    best = plan_objective(inst, empty_plan(inst))
    for pair in itertools.product(_unload_choices(inst, grid_step),
                                  _feed_choices(inst, grid_step)):
        plan = _plan(pair)
        try:
            trace = simulate(inst, plan)
        except PlanInconsistencyError:
            continue
        if audit(inst, trace, plan).ok:
            best = max(best, plan_objective(inst, plan))
    return best


@pytest.mark.parametrize("inst", [tiny_instance(seed) for seed in range(20)]
                         + [_single_tank(), _no_feasible_flow(), _exactly_consumable()])
def test_oracle_equals_its_definition(inst):
    assert grid_oracle(inst, 0.5) == _oracle_by_definition(inst, 0.5)


@pytest.mark.parametrize("seed", [3, 12])
def test_oracle_simulates_no_plan_worth_less_than_its_answer(monkeypatch, seed):
    # best-first: every plan simulated before the answer is worth at least it
    seen = []
    module = sys.modules[grid_oracle.__module__]

    def recording(inst, plan):
        seen.append(plan_objective(inst, plan))
        return simulate(inst, plan)

    inst = tiny_instance(seed)
    monkeypatch.setattr(module, "simulate", recording)
    value = grid_oracle(inst, 0.5)
    assert seen and min(seen) >= value


def _perfbench_instances(seed):
    """The eight instances of the benchmark's oracle_tiny workload at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    rng = random.Random(seed)
    return [run.tiny_instance(blendplan, rng, run.TINY_SHAPES[i % len(run.TINY_SHAPES)],
                              tight=i % 2 == 1) for i in range(run.ORACLE_COUNT)]


def _tied_shares():
    """Two like tanks, so many choices share a missed value exactly, and a
    barge penalty so great that every feed share rounds to one sum with an
    unload share that is not 0."""
    tanks = tuple(Tank(k, 1000.0, 100.0, 400.0, {"P": 50.0}, 0.10) for k in ("T1", "T2"))
    return Instance((SpecDef("P"),),
                    (Barge("B1", 400.0, {"P": 52.0}, (0, 1), 1e22, ("T1", "T2")),),
                    tanks, (Run("R1", (2, 3), 200.0, {"P": (40.0, 60.0)}, {}, 3000.0),),
                    OpsParams(2, 2, 7, 0.10, 4))


def _assert_walk_order(monkeypatch, instances, grid_step):
    # no plan simulates, so grid_oracle tries every pair; it must try them in
    # the order of the stable sort of the whole product by missed value
    module = sys.modules[grid_oracle.__module__]
    for inst in instances:
        want = iter(sorted(itertools.product(_unload_choices(inst, grid_step),
                                             _feed_choices(inst, grid_step)),
                           key=lambda pair: pair[0][0] + pair[1][0]))
        tried = 0

        def refusing(inst, plan):
            nonlocal tried
            pair = next(want, None)
            assert pair is not None and plan == _plan(pair), f"pair {tried}"
            tried += 1
            raise PlanInconsistencyError("refused")

        monkeypatch.setattr(module, "simulate", refusing)
        grid_oracle(inst, grid_step)
        assert tried and next(want, None) is None


@pytest.mark.parametrize("grid_step", [0.5, 0.25, 0.125])
def test_oracle_walks_tiny_instances_in_sorted_product_order(monkeypatch, grid_step):
    _assert_walk_order(monkeypatch, [tiny_instance(seed) for seed in range(20)], grid_step)


@pytest.mark.parametrize("grid_step", [0.5, 0.25])
def test_oracle_walks_benchmark_instances_in_sorted_product_order(monkeypatch, grid_step):
    instances = [inst for seed in range(12) for inst in _perfbench_instances(seed)]
    _assert_walk_order(monkeypatch, instances, grid_step)


def test_oracle_walks_tied_shares_in_sorted_product_order(monkeypatch):
    inst = _tied_shares()
    unloads, feeds = _unload_choices(inst, 0.25), _feed_choices(inst, 0.25)
    sums = [u[0] + f[0] for u, f in itertools.product(unloads, feeds)]
    assert len(set(sums)) < len(sums) // 2      # mostly ties
    # with nothing unloaded, every distinct feed share rounds to one sum
    assert len({f[0] for f in feeds}) > 1 and len({unloads[0][0] + f[0] for f in feeds}) == 1
    _assert_walk_order(monkeypatch, [inst], 0.25)


def test_oracle_memory_does_not_grow_with_the_pair_count():
    # the 8 benchmark instances at seed 5 hold up to 2025 unload and 45 feed
    # choices at 0.125; a list of every pair peaks at about 4.5 MB
    instances = _perfbench_instances(5)
    grid_oracle(instances[0], 0.125)     # first-call caches outside the measure
    tracemalloc.start()
    try:
        for inst in instances:
            grid_oracle(inst, 0.125)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("field, key, value, message", [
    ("y_in", ("BX", "T1", 3), 100.0, "y_in names barge 'BX', which the instance lacks"),
    ("mis", 99, 5.0, "mis names day 99, which the instance lacks"),
])
def test_loss_refuses_a_plan_naming_an_id_the_instance_lacks(sample, field, key, value,
                                                             message):
    # unchecked, the BX entry reads as 0 % loss
    plan = empty_plan(sample)
    getattr(plan, field)[key] = value
    for measure in (simulate, loss, plan_objective):
        with pytest.raises(PlanInconsistencyError, match=f"^{re.escape(message)}$"):
            measure(sample, plan)
