"""Model builders: structure, bounds, tightening, tag coverage, variants."""

from collections import Counter
from dataclasses import replace

import pytest

from blendplan import read_instance, sample_instance_path
from blendplan.builders import (CenterOptions, _envelope_rows, _window_rows, build_center,
                                build_exact_mix, build_exact_split,
                                build_mccormick, make_plans, ratio_buffer,
                                reachable_spec_bounds, tighten)
from blendplan.instance import Barge, Run, SpecDef, Tank
from blendplan.model import INF, TAGS, VAR_DAY_POS, MilpModel
from blendplan.simulate import audit, simulate
from blendplan.solve import SolveOptions, extract_flow_plan, solve
from conftest import small_instance, toy_1t1s, zero_denominator_instance

CORE_TAGS = {
    "inflow_balance", "outflow_balance", "demand_balance", "supply_total",
    "run_const_feed", "feed_share_lb", "feed_share_ub", "barge_unload_limit",
    "daily_unload_limit", "unload_flow_gate", "unload_min_pct",
    "first_unload_ub", "last_unload_lb", "unload_gap",
    "inv_lb", "inv_ub", "init_volume",
}
# noted only when a window is a proper subset of the horizon
MASK_TAGS = {"supply_window", "barge_window_mask"}
FEED_TAGS = {"feed_spec_lb", "feed_spec_ub", "feed_ratio_lb", "feed_ratio_ub"}
ENVELOPE_TAGS = {f"xa_{fam}_{kind}" for fam in ("mid", "end", "out")
                 for kind in ("lb", "ub", "shift_lb", "shift_ub")}
DELTA_TAGS = {f"xdelta_{fam}_{kind}" for fam in ("mid", "end", "out")
              for kind in ("lb", "ub", "shift_lb", "shift_ub")}
XF_TAGS = {"xf_def_mid", "xf_def_end", "xf_def_out"}


def test_exact_mix_bilinear_structure(toy):
    m = build_exact_mix(toy)
    # one spec, one tank, two days: products f*v_mid, f*v_end, f*y_out per day
    assert len(m.bilinear_pairs()) == 6
    assert m.bilinear_kind_pairs() == {("f", "v_mid"), ("f", "v_end"), ("f", "y_out")}
    assert m.tags() >= CORE_TAGS | {"blend_mix", "spec_flow_split", "init_spec",
                                    "feed_spec_lb", "feed_spec_ub"}


def test_exact_mix_no_ratio_rows_without_pairs(toy):
    m = build_exact_mix(toy)
    assert not [q for q in m.quad_rows if q.tag.startswith("feed_ratio")]


def test_window_mask_tags_noted_for_partial_windows():
    inst = small_instance(0)
    m = build_exact_mix(inst)
    assert MASK_TAGS <= set(m.structural_tags)


def test_exact_mix_unload_limit_rhs(toy):
    m = build_exact_mix(toy)
    rows = m.rows_by_tag("barge_unload_limit")
    assert len(rows) == 1 and rows[0].hi == 2.0


def test_exact_split_bilinear_only_outflow_consistency(toy):
    m = build_exact_split(toy)
    quad = [q for q in m.quad_rows if q.quads]
    assert {q.tag for q in quad} == {"outflow_consistency"}
    assert len(quad) == 2          # one per (tank, spec, demand day)
    assert all(len(q.quads) == 2 for q in quad)


def test_exact_split_initial_condition_value():
    inst = toy_1t1s()
    inst = replace(inst, tanks=(Tank("T1", 2000.0, 100.0, 1179.0, {"P": 50.0}, 0.10),))
    m = build_exact_split(inst)
    row0 = [r for r in m.rows if r.tag == "spec_mass_blend" and r.name.endswith(",0]")][0]
    assert row0.lo == row0.hi == pytest.approx(1179.0 * 50.0)


def test_no_specs_makes_split_a_pure_milp(toy):
    inst = replace(toy, specs=(),
                   tanks=(replace(toy.tanks[0], specs_init={}),),
                   barges=(replace(toy.barges[0], specs={}),),
                   runs=(replace(toy.runs[0], spec_bounds={}),))
    m = build_exact_split(inst)
    assert not m.has_bilinear()


def test_reachable_bounds_hull(toy):
    inst = replace(toy, barges=(
        replace(toy.barges[0], id="B1", specs={"P": 12.0}),
        replace(toy.barges[0], id="B2", specs={"P": 8.0}),
    ), tanks=(replace(toy.tanks[0], specs_init={"P": 10.0}),))
    assert reachable_spec_bounds(inst)[("T1", "P")] == (8.0, 12.0)


def test_reachable_bounds_no_inflow_is_degenerate():
    inst = toy_1t1s()
    inst = replace(
        inst,
        tanks=inst.tanks + (Tank("T2", 500.0, 0.0, 100.0, {"P": 33.0}, 0.10),),
    )
    assert reachable_spec_bounds(inst)[("T2", "P")] == (33.0, 33.0)
    plans = make_plans(inst, 1.0)
    assert plans[("T2", "P")].eps == 0.0


def _typed(d):
    return {k: (v, type(v)) for k, v in d.items()}


def test_make_plans_pinned_for_zero_width_narrow_and_wide_ranges():
    # recorded from the three plan constructors this one formula replaced
    inst = toy_1t1s()
    inst = replace(inst, barges=(replace(inst.barges[0], allowed_tanks=("T1", "T2", "T3")),),
                   tanks=inst.tanks + (Tank("T2", 1000.0, 100.0, 500.0, {"P": 60.0}, 0.10),
                                       Tank("T3", 1000.0, 100.0, 500.0, {"P": 59.5}, 0.10)))
    head = {"scheme": "nmdt", "base": 2}
    want = {
        ("T1", "P"): {**head, "lambda0": 50.0, "eps": 0.625, "n": 4, "m": 1,
                      "lo": 50.0, "hi": 60.0, "eps_hat": 1.0},    # wide
        ("T2", "P"): {**head, "lambda0": 60.0, "eps": 0.0, "n": 0, "m": 1,
                      "lo": 60.0, "hi": 60.0, "eps_hat": 1.0},    # zero width
        ("T3", "P"): {**head, "lambda0": 59.5, "eps": 0.5, "n": 0, "m": 1,
                      "lo": 59.5, "hi": 60.0, "eps_hat": 1.0},    # narrower than eps_hat
    }
    got = {kq: _typed(p.to_dict()) for kq, p in make_plans(inst, 1.0).items()}
    assert got == {kq: _typed(d) for kq, d in want.items()}
    assert list(got[("T1", "P")]) == list(want[("T1", "P")])    # key order of the sidecar


def test_tighten_spec_buffer(toy):
    inst = replace(toy, runs=(replace(toy.runs[0], spec_bounds={"P": (40.0, 60.0)}),))
    tb = tighten(inst, 1.0)
    assert tb.spec[("R1", "P")] == (40.5, 59.5)


def test_tighten_zero_eps_is_identity(toy, caplog):
    # precision 0 is how the exact and untightened models get their windows
    for inst in (toy, read_instance(sample_instance_path()), zero_denominator_instance()):
        with caplog.at_level("WARNING", logger="blendplan.builders"):
            tb = tighten(inst, 0.0)
        assert tb.spec == {(r.id, q): b for r in inst.runs for q, b in r.spec_bounds.items()}
        assert tb.ratio == {(r.id, q1, q2): b for r in inst.runs
                            for (q1, q2), b in r.ratio_bounds.items()}
    assert caplog.records == []


def test_ratio_buffer_formula():
    assert ratio_buffer(60.0, 30.0, 1.0, 1.0) == pytest.approx(0.05)


def test_tighten_ratio_window():
    inst = toy_1t1s()
    inst = replace(
        inst,
        specs=(SpecDef("P"), SpecDef("Q")),
        tanks=(Tank("T1", 1000.0, 100.0, 500.0, {"P": 60.0, "Q": 30.0}, 0.10),),
        barges=(Barge("B1", 400.0, {"P": 60.0, "Q": 30.0}, (0, 1), 1000.0, ("T1",)),),
        runs=(Run("R1", (0, 1), 200.0, {"P": (0.0, 100.0), "Q": (20.0, 100.0)},
                  {("P", "Q"): (1.0, 2.0)}, 3000.0),),
    )
    tb = tighten(inst, 1.0)
    assert tb.ratio[("R1", "P", "Q")] == (pytest.approx(1.05), pytest.approx(1.95))


def test_tighten_ratio_floor_falls_back_to_the_run_bound():
    # no reachable Q is positive: the floor is the run's own lower bound on Q
    inst = toy_1t1s()
    inst = replace(
        inst,
        specs=(SpecDef("P"), SpecDef("Q")),
        tanks=(Tank("T1", 1000.0, 100.0, 500.0, {"P": 60.0, "Q": 0.0}, 0.10),),
        barges=(Barge("B1", 400.0, {"P": 60.0, "Q": 30.0}, (0, 1), 1000.0, ("T1",)),),
        runs=(Run("R1", (0, 1), 200.0, {"P": (0.0, 100.0), "Q": (20.0, 100.0)},
                  {("P", "Q"): (1.0, 2.0)}, 3000.0),),
    )
    assert reachable_spec_bounds(inst)[("T1", "Q")] == (0.0, 30.0)
    with pytest.raises(ValueError, match="denominator"):
        ratio_buffer(60.0, 0.0, 1.0, 1.0)
    buf = ratio_buffer(60.0, 20.0, 1.0, 1.0)       # 0.5/20 + 60*0.5/400 = 0.1
    tb = tighten(inst, 1.0)
    assert tb.ratio[("R1", "P", "Q")] == (pytest.approx(1.0 + buf), pytest.approx(2.0 - buf))
    assert buf == pytest.approx(0.1)


def test_tighten_buffer_reduction_rule(toy, caplog):
    # window narrower than 2*eps_hat: buffer shrinks until one cell remains
    inst = replace(toy, runs=(replace(toy.runs[0], spec_bounds={"P": (50.0, 51.5)}),))
    tb = tighten(inst, 1.0)
    lo, hi = tb.spec[("R1", "P")]
    assert hi - lo == pytest.approx(1.0)
    assert lo == pytest.approx(50.25) and hi == pytest.approx(51.25)
    # window narrower than one cell: buffer skipped with a warning
    inst2 = replace(toy, runs=(replace(toy.runs[0], spec_bounds={"P": (50.0, 50.5)}),))
    with caplog.at_level("WARNING", logger="blendplan.builders"):
        tb2 = tighten(inst2, 1.0)
    assert tb2.spec[("R1", "P")] == (50.0, 50.5)
    assert [r.levelname for r in caplog.records] == ["WARNING"]


def test_tighten_logs_skipped_buffer(toy, caplog):
    # a window narrower than one cell runs unbuffered: the build says so
    inst = replace(toy, runs=(replace(toy.runs[0], spec_bounds={"P": (50.0, 50.5)}),))
    with caplog.at_level("WARNING", logger="blendplan.builders"):
        build_center(inst, make_plans(inst, 1.0))
    (rec,) = caplog.records
    assert rec.levelname == "WARNING" and rec.name == "blendplan.builders"
    assert rec.getMessage() == ("run R1 spec P: window width 0.5 below one discretization "
                                "cell 1.0; buffer skipped")


def test_tightened_windows_are_subsets():
    for seed in range(6):
        inst = small_instance(seed, tight=seed % 2 == 0)
        tb = tighten(inst, 1.0)
        for r in inst.runs:
            for q, (lo, hi) in r.spec_bounds.items():
                tlo, thi = tb.spec[(r.id, q)]
                assert lo - 1e-12 <= tlo <= thi <= hi + 1e-12
            for (q1, q2), (lo, hi) in r.ratio_bounds.items():
                tlo, thi = tb.ratio[(r.id, q1, q2)]
                assert lo - 1e-12 <= tlo <= thi <= hi + 1e-12


@pytest.mark.parametrize("tightened", [True, False], ids=["tightened", "untightened"])
def test_every_builder_builds_the_zero_denominator_instance(tightened):
    # a valid instance whose reachable S2 reaches 0 builds with every method
    inst = zero_denominator_instance()
    plans = make_plans(inst, 1.0)
    models = [build_center(inst, plans, CenterOptions(tighten=tightened)),
              build_mccormick(inst, plans, CenterOptions(tighten=tightened)),
              build_exact_mix(inst), build_exact_split(inst)]
    for m in models:
        assert m.n_rows and {"feed_ratio_lb", "feed_ratio_ub"} <= m.tags()


def test_zero_denominator_center_solve_audits_clean():
    # precision 2 keeps the flat solve short; at precision 1 the same solve
    # is optimal with 0 % loss but takes minutes
    inst = zero_denominator_instance()
    m = build_center(inst, make_plans(inst, 2.0))
    res = solve(m, SolveOptions(mip_gap=0.005, time_limit=120))
    assert res.status in ("optimal", "gap_reached")
    plan = extract_flow_plan(m, res)
    rep = audit(inst, simulate(inst, plan), plan)
    assert rep.ok, rep.violations
    assert any(v > 0 for v in plan.y_out.values())


# -- discretized models -------------------------------------------------------


def test_center_binary_count_per_day(toy):
    # reachable width 10 at eps_hat 1 -> 4 digits per day, one tank, one spec
    plans = make_plans(toy, 1.0)
    assert plans[("T1", "P")].n == 4
    m = build_center(toy, plans)
    alphas = m.vars_of_kind("alpha")
    assert len(alphas) == 4 * toy.horizon
    # plus gamma (2 window days) and sigma (2 demand days)
    assert m.n_binary == len(alphas) + 2 + 2


def test_center_zero_digits_leaves_unload_binaries_only(toy):
    inst = replace(toy, barges=(replace(toy.barges[0], specs={"P": 50.4}),))
    plans = make_plans(inst, 1.0)
    assert plans[("T1", "P")].n == 0
    m = build_center(inst, plans)
    assert {v.kind for v in m.vars if v.binary} == {"gamma", "sigma"}


def test_center_six_binaries_per_tank_day():
    # two specs, widths in (4, 8] at eps_hat 1 -> 3 digits each, 6 per tank-day
    base = toy_1t1s()
    inst = replace(
        base,
        specs=(SpecDef("S1"), SpecDef("S2")),
        tanks=tuple(Tank(f"T{i+1}", 1000.0, 100.0, 500.0,
                         {"S1": 50.0, "S2": 12.0}, 0.10) for i in range(3)),
        barges=(Barge("B1", 400.0, {"S1": 53.0, "S2": 15.0}, (0, 1), 1000.0,
                      ("T1", "T2", "T3")),
                Barge("B2", 400.0, {"S1": 47.5, "S2": 9.5}, (0, 1), 800.0,
                      ("T1", "T2", "T3"))),
        runs=(Run("R1", (0, 1), 200.0, {"S1": (40.0, 60.0), "S2": (5.0, 20.0)},
                  {}, 3000.0),),
    )
    plans = make_plans(inst, 1.0)
    for k in inst.tanks:
        per_day = sum(plans[(k.id, q)].n for q in ("S1", "S2"))
        assert per_day == 6
    m = build_center(inst, plans)
    assert len(m.vars_of_kind("alpha")) == 6 * 3 * inst.horizon


def test_center_is_linear_and_tagged(toy):
    m = build_center(toy, make_plans(toy, 1.0))
    assert not m.has_bilinear()
    want = CORE_TAGS | FEED_TAGS - {"feed_ratio_lb", "feed_ratio_ub"}
    assert m.tags() >= (want | {"spec_mass_split", "blend_relax_lb", "blend_relax_ub",
                                "init_spec_volume"} | XF_TAGS | ENVELOPE_TAGS)


def test_center_no_feed_vars_off_demand_days(toy):
    # horizon 2 with demand both days vs horizon 3 with a quiet third day
    inst = replace(toy, ops=replace(toy.ops, horizon=3))
    m = build_center(inst, make_plans(inst, 1.0))
    assert m.var("y_out", ("T1", 2)) is None
    assert m.var("yf_out", ("T1", "P", 2)) is None
    assert m.var("x_alpha", ("T1", "P", 2, 1, "out")) is None
    assert m.var("x_alpha", ("T1", "P", 2, 1, "mid")) is not None


def test_mccormick_structure(toy):
    plans = make_plans(toy, 1.0)
    m = build_mccormick(toy, plans)
    assert not m.has_bilinear()
    assert m.rows_by_tag("spec_mass_blend")        # exact equality
    assert not m.rows_by_tag("blend_relax_ub")
    p = plans[("T1", "P")]
    df = m.var("delta_f", ("T1", "P", 0))
    assert df is not None and df.hi == pytest.approx(p.eps)
    xd = m.var("x_delta", ("T1", "P", 0, "mid"))
    assert xd is not None and xd.hi == pytest.approx(p.eps * 1000.0)
    assert m.tags() >= DELTA_TAGS | ENVELOPE_TAGS | XF_TAGS


def test_builders_raise_on_missing_plan(toy):
    plans = make_plans(toy, 1.0)
    del plans[("T1", "P")]
    with pytest.raises(KeyError):
        build_center(toy, plans)


def test_make_plans_per_spec_precision():
    inst = small_instance(0)
    plans = make_plans(inst, {"S1": 1.0, "S2": 0.25})
    assert plans[("T1", "S1")].eps_hat == 1.0
    assert plans[("T1", "S2")].eps_hat == 0.25
    assert plans[("T1", "S2")].eps <= 0.25
    with pytest.raises(ValueError, match="missing specs"):
        make_plans(inst, {"S1": 1.0})


# Rows per tag and columns per kind on small_instance(0) at eps_hat 1.0,
# recorded from the builders before they shared one scaffold.
_CORE_ROWS = {
    "barge_unload_limit": 2, "daily_unload_limit": 5, "demand_balance": 4,
    "feed_share_lb": 8, "feed_share_ub": 8, "first_unload_ub": 6, "inflow_balance": 12,
    "last_unload_lb": 6, "outflow_balance": 12, "run_const_feed": 4, "supply_total": 2,
    "unload_flow_gate": 6, "unload_gap": 2, "unload_min_pct": 6,
}
_SPEC_ROWS = {**_CORE_ROWS, "feed_ratio_lb": 4, "feed_ratio_ub": 4, "feed_spec_lb": 8,
              "feed_spec_ub": 8, "spec_mass_split": 24}
_DIGIT_ROWS = {**_SPEC_ROWS, "xf_def_mid": 24, "xf_def_end": 24, "xf_def_out": 16,
               **{f"xa_{fam}_{kind}": n for fam, n in (("mid", 18), ("end", 18), ("out", 12))
                  for kind in ("lb", "ub", "shift_lb", "shift_ub")}}
_CENTER_ROWS = {**_DIGIT_ROWS, "blend_relax_lb": 24, "blend_relax_ub": 24}
_CORE_COLS = {"gamma": 6, "mis": 4, "sigma": 8, "t_first": 2, "t_last": 2, "v_end": 12,
              "v_mid": 12, "v_unused": 2, "y_in": 6, "y_out": 8}
_SPEC_COLS = {**_CORE_COLS, "vf_end": 24, "vf_mid": 24, "yf_out": 16}
_DIGIT_COLS = {**_SPEC_COLS, "alpha": 18, "x_alpha": 48}


@pytest.mark.parametrize("build,rows,cols", [
    (lambda i, p: build_center(i, p), _CENTER_ROWS, _DIGIT_COLS),
    (lambda i, p: build_center(i, p, CenterOptions(tighten=False)), _CENTER_ROWS, _DIGIT_COLS),
    (lambda i, p: build_mccormick(i, p),
     {**_DIGIT_ROWS, "spec_mass_blend": 24,
      **{f"xdelta_{fam}_{kind}": n for fam, n in (("mid", 24), ("end", 24), ("out", 16))
         for kind in ("lb", "ub", "shift_lb", "shift_ub")}},
     {**_DIGIT_COLS, "delta_f": 24, "x_delta": 64}),
    (lambda i, p: build_exact_split(i),
     {**_SPEC_ROWS, "spec_mass_blend": 24, "outflow_consistency": 16}, _SPEC_COLS),
], ids=["center", "center-untightened", "mccormick", "exact-split"])
def test_model_size_per_tag_pinned(build, rows, cols):
    inst = small_instance(0)
    m = build(inst, make_plans(inst, 1.0))
    got_rows = Counter(r.tag for r in m.rows) + Counter(q.tag for q in m.quad_rows)
    assert dict(got_rows) == rows
    assert dict(Counter(v.kind for v in m.vars)) == cols


def test_builders_use_the_whole_vocabulary():
    # every tag and variable kind that model.py declares is produced by some
    # builder at its defaults: a declared name nothing builds is dead
    inst = small_instance(0)
    plans = make_plans(inst, 1.0)
    models = [build_center(inst, plans), build_center(inst, plans, CenterOptions(tighten=False)),
              build_mccormick(inst, plans), build_exact_mix(inst), build_exact_split(inst)]
    assert set().union(*(m.tags() for m in models)) == TAGS
    assert {v.kind for m in models for v in m.vars} == set(VAR_DAY_POS)


def test_window_rows_sum_a_term_in_both_num_and_den():
    # lo·den and hi·den share x with num: each row holds x once, at the sum
    m = MilpModel("w")
    x = m.add_var("y_out", ("T1", 0), 0.0, 10.0)
    y = m.add_var("y_out", ("T2", 0), 0.0, 10.0)
    f = m.add_var("f", ("T1", "P", 0), 0.0, 100.0)
    _window_rows(m, "feed_share", ("T1", 0), {x: 1.0}, {x: 1.0, y: 1.0}, 0.25, 1.0)
    lb, ub = m.rows
    assert (lb.tag, lb.coeffs, lb.lo, lb.hi) == ("feed_share_lb", {x.col: 0.75, y.col: -0.25},
                                                 0.0, INF)
    assert (ub.tag, ub.coeffs, ub.lo, ub.hi) == ("feed_share_ub", {y.col: -1.0}, -INF, 0.0)
    _window_rows(m, "feed_spec", ("P", 0), {(f, x): 1.0, y: 2.0}, {(f, x): 1.0, x: 4.0},
                 40.0, 60.0)
    lb, ub = m.quad_rows
    assert (lb.coeffs, lb.quads) == ({y.col: 2.0, x.col: -160.0}, ((-39.0, f.col, x.col),))
    assert (ub.coeffs, ub.quads) == ({y.col: 2.0, x.col: -240.0}, ((-59.0, f.col, x.col),))


@pytest.mark.parametrize("beta,lo,hi", [(0.0, 0.0, 0.0), (1.0, 10.0, 10.0), (0.5, 0.0, 4.0)])
def test_envelope_bounds_at_fractional_selector(beta, lo, hi):
    # the four envelope rows of prod = x * beta with x in [0, 10] and beta
    # fixed, as a relaxed digit may be; x fixed to 4 where relevant
    m = MilpModel("envelope")
    x = m.add_var("v_mid", ("T1", 0), 0.0, 10.0)
    sel = m.add_var("alpha", ("T1", "P", 0, 1), beta, beta)
    prod = m.add_var("x_alpha", ("T1", "P", 0, 1, "mid"), 0.0, 10.0)
    _envelope_rows(m, "xa_mid", ("T1", "P", 0, 1), x, sel, prod, 0.0, 10.0)
    assert [r.name for r in m.rows] == ["xa_mid_lb[T1,P,0,1]", "xa_mid_ub[T1,P,0,1]",
                                        "xa_mid_shift_ub[T1,P,0,1]", "xa_mid_shift_lb[T1,P,0,1]"]
    if beta == 0.5:
        m.fix(x, 4.0)
    m.obj = {prod.col: 1.0}
    res_min = solve(m, SolveOptions())
    assert res_min.value(prod) == pytest.approx(lo if beta != 1.0 else res_min.value(x))
    m.obj = {prod.col: -1.0}
    res_max = solve(m, SolveOptions())
    assert res_max.value(prod) == pytest.approx(hi if beta != 1.0 else res_max.value(x))


# (linear rows, quadratic rows) of each builder on the bundled sample at eps_hat 1.0
@pytest.mark.parametrize("build, sizes", [
    (lambda i, p: build_center(i, p), (4903, 0)),
    (lambda i, p: build_mccormick(i, p), (6763, 0)),
    (lambda i, p: build_exact_mix(i), (643, 510)),
    (lambda i, p: build_exact_split(i), (1153, 150)),
], ids=["center", "mccormick", "exact-mix", "exact-split"])
def test_sample_rows_are_unique_by_tag_and_index(build, sizes):
    inst = read_instance(sample_instance_path())
    m = build(inst, make_plans(inst, 1.0))
    assert (len(m.rows), len(m.quad_rows)) == sizes
    keys = [(r.tag, r.index) for r in m.rows + m.quad_rows]
    assert len(set(keys)) == len(keys)
    assert all(r.name == f"{r.tag}[{','.join(map(str, r.index))}]" for r in m.rows + m.quad_rows)
