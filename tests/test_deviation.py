"""Representation-error behavior of the two MILP methods.

Midpoint method: right after a blend the digit-decoded tank spec sits
within half a grid cell of the true spec (checked statistically: repeated
blends into one tank can compound), and between blends the digits cannot
move, so the deviation is frozen.  Envelope method: the represented spec
may drift from the true one by up to one full cell between blends.
"""

from collections import defaultdict

from blendplan.builders import build_center, build_mccormick, make_plans, plan_eps_hat, tighten
from blendplan.simulate import simulate
from blendplan.solve import SolveOptions, extract_flow_plan, solve
from conftest import small_instance

TOL = 1e-6


def _decoded_spec(model, values, k, q, t):
    p = model.plans[(k, q)]
    total = p.lambda0
    if model.name == "center":
        total += p.eps / 2.0
    else:
        df = model.var("delta_f", (k, q, t))
        if df is not None:
            total += values[df.col]
    for i in range(1, p.n + 1):
        total += p.eps * p.level_weight(i) * round(values[model.var("alpha", (k, q, t, i)).col])
    return total


def _solved(inst, build):
    m = build(inst, make_plans(inst, 1.0))
    res = solve(m, SolveOptions(mip_gap=0.005, time_limit=120))
    assert res.status in ("optimal", "gap_reached")
    plan = extract_flow_plan(m, res)
    return m, res, plan, simulate(inst, plan)


def _blend_days(inst, plan):
    days = defaultdict(set)
    for (s, k, t), v in plan.y_in.items():
        if v > TOL:
            days[k].add(t)
    return days


def test_center_deviation_half_cell_after_blend_and_frozen_between():
    after_blend = []
    for seed in range(10):
        inst = small_instance(seed, tight=True)
        m, res, plan, trace = _solved(inst, build_center)
        blends = _blend_days(inst, plan)
        for k in inst.tanks:
            for q in inst.spec_ids():
                p = m.plans[(k.id, q)]
                prev_dev = None
                for t in range(inst.horizon):
                    dev = abs(_decoded_spec(m, res.values, k.id, q, t)
                              - trace.f[(k.id, q, t)])
                    if t in blends[k.id]:
                        after_blend.append(dev <= p.eps / 2.0 + TOL)
                    elif prev_dev is not None:
                        # digits frozen between blends: deviation cannot grow
                        assert dev <= prev_dev + TOL
                    prev_dev = dev
    assert after_blend
    frac = sum(after_blend) / len(after_blend)
    assert frac >= 0.9, frac


def test_mccormick_deviation_within_one_cell():
    within = []
    for seed in range(6):
        inst = small_instance(seed, tight=True)
        m, res, plan, trace = _solved(inst, build_mccormick)
        for k in inst.tanks:
            for q in inst.spec_ids():
                p = m.plans[(k.id, q)]
                for t in range(inst.horizon):
                    vm = res.value(m.var("v_mid", (k.id, t)))
                    if vm <= TOL:
                        continue
                    rep = res.value(m.var("vf_mid", (k.id, q, t))) / vm
                    within.append(abs(rep - trace.f[(k.id, q, t)]) <= p.eps + TOL)
    assert within
    frac = sum(within) / len(within)
    assert frac >= 0.9, frac


def test_center_feed_representation_matches_constraint_side():
    # the represented feed mixture is what the demand windows constrain
    inst = small_instance(3, tight=True)
    m, res, plan, trace = _solved(inst, build_center)
    tb = tighten(inst, plan_eps_hat(m.plans))
    for r in inst.runs:
        for t in range(r.days[0], r.days[1] + 1):
            out = sum(plan.y_out.get((k.id, t), 0.0) for k in inst.tanks)
            if out <= TOL:
                continue
            for q in inst.spec_ids():
                rep_mass = sum(res.value(m.var("yf_out", (k.id, q, t))) for k in inst.tanks)
                lo, hi = tb.spec[(r.id, q)]
                assert lo * out - 1e-5 <= rep_mass <= hi * out + 1e-5
