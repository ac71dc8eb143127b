"""Instance model: validation, derived sets, generation, serialization."""

import json
import math
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendplan.instance import (Barge, InstanceError, RandomizationParams, Tank,
                                derive_sets, extend_periodic, instance_from_dict,
                                instance_to_dict, randomize_supply, read_instance,
                                validate_instance, write_instance)
from blendplan import sample_instance_path
from blendplan.cli import main
from conftest import small_instance, tiny_instance, toy_1t1s


def test_tank_at_minimum_inventory_is_valid():
    t = Tank("T1", 1179.0, 158.0, 158.0, {"P": 50.0}, 0.10)
    inst = replace(toy_1t1s(), tanks=(t,))
    assert validate_instance(inst).ok


def test_inverted_inventory_bounds_flagged():
    t = Tank("T1", 100.0, 500.0, 500.0, {"P": 50.0}, 0.10)
    inst = replace(toy_1t1s(), tanks=(t,))
    rep = validate_instance(inst)
    assert not rep.ok
    assert any("inventory bounds inverted" in v.message for v in rep.violations)


def test_overlapping_runs_flagged():
    base = toy_1t1s()
    runs = (
        replace(base.runs[0], id="Ra", days=(5, 6)),
        replace(base.runs[0], id="Rb", days=(6, 8)),
    )
    inst = replace(base, runs=runs, ops=replace(base.ops, horizon=10))
    rep = validate_instance(inst)
    assert any("runs overlap" in v.message for v in rep.violations)


def test_run_beyond_horizon_flagged():
    base = toy_1t1s()
    inst = replace(base, runs=(replace(base.runs[0], days=(0, 5)),))
    assert any("beyond horizon" in v.message for v in validate_instance(inst).violations)


def test_ratio_denominator_needs_positive_lower_bound():
    base = small_instance(0)
    bad_runs = tuple(
        replace(r, spec_bounds={**r.spec_bounds, "S2": (0.0, r.spec_bounds["S2"][1])})
        for r in base.runs)
    rep = validate_instance(replace(base, runs=bad_runs))
    assert any("denominator" in v.message for v in rep.violations)


NAN, INF = math.nan, math.inf

# (where in the sample's JSON, the value put there, a violation it causes);
# every rule of `validate_instance`, each non-finite number JSON can hold
VALIDATION_CASES = [
    (("specs", 1, "id"), "S1", "specs: duplicate id 'S1'"),
    (("tanks", 1, "id"), "T1", "tanks: duplicate id 'T1'"),
    (("barges", 1, "id"), "B1", "barges: duplicate id 'B1'"),
    (("runs", 1, "id"), "R1", "runs: duplicate id 'R1'"),
    (("ops", "horizon"), 0, "ops.horizon: must be positive"),
    (("ops", "max_unloads_per_day"), 0, "ops.max_unloads_per_day: must be positive"),
    (("ops", "max_unloads_per_barge"), 0, "ops.max_unloads_per_barge: must be positive"),
    (("ops", "max_unload_gap"), 0, "ops.max_unload_gap: must be positive"),
    (("ops", "min_daily_unload_pct"), 1.5,
     "ops.min_daily_unload_pct: must be a fraction in (0, 1]"),
    (("ops", "min_daily_unload_pct"), NAN,
     "ops.min_daily_unload_pct: must be a fraction in (0, 1]"),
    (("tanks", 0, "v_min"), 2000.0,
     "tanks[0](T1): inventory bounds inverted: need 0 <= v_min <= v_init <= v_max"),
    (("tanks", 0, "v_max"), INF, "tanks[0](T1).v_max: must be a finite number"),
    (("tanks", 0, "v_init"), NAN, "tanks[0](T1).v_init: must be a finite number"),
    (("tanks", 0, "min_feed_pct"), 1.5, "tanks[0](T1).min_feed_pct: must be a fraction in [0, 1]"),
    (("tanks", 0, "specs_init"), {"S1": 49.0}, "tanks[0](T1).specs_init: missing specs ['S2']"),
    (("tanks", 0, "specs_init", "S9"), 1.0, "tanks[0](T1).specs_init: unknown specs ['S9']"),
    (("tanks", 0, "specs_init", "S1"), -1.0,
     "tanks[0](T1).specs_init[S1]: concentration must be non-negative"),
    (("tanks", 0, "specs_init", "S1"), NAN,
     "tanks[0](T1).specs_init[S1]: concentration must be a finite number"),
    (("barges", 0, "volume"), 0.0, "barges[0](B1).volume: must be positive"),
    (("barges", 0, "volume"), NAN, "barges[0](B1).volume: must be a finite number"),
    (("barges", 0, "volume"), INF, "barges[0](B1).volume: must be a finite number"),
    (("barges", 0, "unload_penalty"), -1.0, "barges[0](B1).unload_penalty: must be non-negative"),
    (("barges", 0, "unload_penalty"), NAN,
     "barges[0](B1).unload_penalty: must be a finite number"),
    (("barges", 0, "window"), [3, 1], "barges[0](B1).window: need 0 <= first <= last"),
    (("barges", 0, "window"), [0, 30], "barges[0](B1).window: ends on day 30, beyond horizon 30"),
    (("barges", 0, "allowed_tanks"), [], "barges[0](B1).allowed_tanks: must be nonempty"),
    (("barges", 0, "allowed_tanks"), ["T1", "T1"],
     "barges[0](B1).allowed_tanks: duplicate id 'T1'"),
    (("barges", 0, "allowed_tanks"), ["T9"], "barges[0](B1).allowed_tanks: unknown tank 'T9'"),
    (("barges", 0, "max_unloads"), -1, "barges[0](B1).max_unloads: must be non-negative"),
    (("barges", 0, "min_unload_pct"), 0.0,
     "barges[0](B1).min_unload_pct: must be a fraction in (0, 1]"),
    (("barges", 0, "specs", "S1"), NAN,
     "barges[0](B1).specs[S1]: concentration must be a finite number"),
    (("runs", 0, "days"), [4, 0], "runs[0](R1).days: need 0 <= first <= last"),
    (("runs", 3, "days"), [24, 30], "runs[3](R4).days: ends on day 30, beyond horizon 30"),
    (("runs", 0, "daily_demand"), 0.0, "runs[0](R1).daily_demand: must be positive"),
    (("runs", 0, "daily_demand"), NAN, "runs[0](R1).daily_demand: must be a finite number"),
    (("runs", 0, "miss_penalty"), -1.0, "runs[0](R1).miss_penalty: must be non-negative"),
    (("runs", 0, "miss_penalty"), INF, "runs[0](R1).miss_penalty: must be a finite number"),
    (("runs", 0, "spec_bounds", "S9"), [0.0, 1.0], "runs[0](R1).spec_bounds: unknown spec 'S9'"),
    (("runs", 0, "spec_bounds", "S1"), [53.0, 46.5], "runs[0](R1).spec_bounds[S1]: empty interval"),
    (("runs", 0, "spec_bounds", "S1"), [NAN, 53.0],
     "runs[0](R1).spec_bounds[S1].lo: must be a finite number"),
    (("runs", 0, "ratio_bounds", "S1/S9"), [1.0, 2.0],
     "runs[0](R1).ratio_bounds[S1/S9]: unknown spec in ratio pair"),
    (("runs", 0, "ratio_bounds", "S1/S1"), [0.5, 2.0],
     "runs[0](R1).ratio_bounds[S1/S1]: ratio pair must use two distinct specs"),
    (("runs", 0, "ratio_bounds", "S1/S2"), [5.0, 3.4],
     "runs[0](R1).ratio_bounds[S1/S2]: empty interval"),
    (("runs", 0, "ratio_bounds", "S1/S2"), [3.4, INF],
     "runs[0](R1).ratio_bounds[S1/S2].hi: must be a finite number"),
    (("runs", 0, "spec_bounds", "S2"), [0.0, 13.5], "runs[0](R1).ratio_bounds[S1/S2]: "
     "denominator spec needs a positive lower bound in spec_bounds"),
    (("runs", 1, "days"), [4, 11], "runs[1](R2).days: runs overlap: R2 and R1"),
]


MISSING = object()   # a value for `_sample_with` that deletes the member


def _sample_with(where, value):
    data = json.load(open(sample_instance_path()))
    *path, last = where
    node = data
    for key in path:
        node = node[key]
    if value is MISSING:
        del node[last]
    else:
        node[last] = value
    return data


@pytest.mark.parametrize("where,value,want", VALIDATION_CASES)
def test_validation_flags_each_rule(where, value, want, tmp_path, capsys):
    data = _sample_with(where, value)
    assert want in [str(v) for v in validate_instance(instance_from_dict(data)).violations]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))    # NaN and Infinity as Python's json writes them
    assert main(["validate", "--instance", str(p)]) == 2
    assert want in json.loads(capsys.readouterr().out)["violations"]


@pytest.mark.parametrize("where,value,want", [
    ((), [], "top level: expected a JSON object"),
    (("specs", 0), 1, "specs[0]: expected a JSON object"),
    (("schema",), "blendplan-instance/0", "schema: expected 'blendplan-instance/1'"),
    (("barges", 0, "window"), [0], "barges[0].window: expected [first, last]"),
    (("runs", 0, "days"), [0, 1, 2], "runs[0].days: expected [first, last]"),
    (("runs", 0, "ratio_bounds"), {"S1S2": [3.4, 5.0]},
     "runs[0].ratio_bounds: key 'S1S2' is not 'q1/q2'"),
    (("ops",), MISSING, "top level: missing field 'ops'"),
    (("tanks", 0, "v_max"), MISSING, "tanks[0]: missing field 'v_max'"),
    (("barges", 0, "extra"), 1, "barges[0]: unknown field(s) ['extra']"),
])
def test_instance_from_dict_rejects_malformed_data(where, value, want, tmp_path, capsys):
    data = _sample_with(where, value) if where else value
    with pytest.raises(InstanceError) as err:
        instance_from_dict(data)
    assert str(err.value).startswith(want)
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(p)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {want}")


def test_derive_sets_windows_and_demand_days():
    inst = small_instance(1)
    ds = derive_sets(inst)
    # barge available exactly inside its inclusive window
    for b in inst.barges:
        for t in range(inst.horizon):
            inside = b.window[0] <= t <= b.window[1]
            assert (b.id in ds.available_by_day.get(t, ())) == inside
    want = set()
    for r in inst.runs:
        want |= set(range(r.days[0], r.days[1] + 1))
    assert set(ds.demand_days) == want
    # off-window day has no barges
    free = [t for t in range(inst.horizon)
            if all(not (b.window[0] <= t <= b.window[1]) for b in inst.barges)]
    for t in free:
        assert t not in ds.available_by_day


def test_derive_sets_cardinality_two_ways():
    inst = small_instance(2)
    ds = derive_sets(inst)
    for t in range(inst.horizon):
        by_scan = sum(1 for b in inst.barges if b.window[0] <= t <= b.window[1])
        assert len(ds.available_by_day.get(t, ())) == by_scan


def test_adjacent_runs_union():
    base = toy_1t1s()
    runs = (
        replace(base.runs[0], id="Ra", days=(0, 4)),
        replace(base.runs[0], id="Rb", days=(5, 6)),
    )
    inst = replace(base, runs=runs, ops=replace(base.ops, horizon=8),
                   barges=(replace(base.barges[0], window=(0, 6)),))
    ds = derive_sets(inst)
    assert ds.demand_days == tuple(range(0, 7))


def test_derive_sets_is_computed_once_per_instance():
    inst = toy_1t1s()
    assert derive_sets(inst) is derive_sets(inst)


def test_derive_sets_of_invalid_instance_raises_every_call():
    inst = replace(toy_1t1s(), tanks=(Tank("T1", 100.0, 500.0, 500.0, {"P": 50.0}, 0.10),))
    for _ in range(2):
        with pytest.raises(InstanceError, match="inventory bounds inverted"):
            derive_sets(inst)


def test_replaced_instance_derives_its_own_sets():
    inst = toy_1t1s()
    assert derive_sets(inst).demand_days == (0, 1)
    later = replace(inst, runs=(replace(inst.runs[0], days=(1, 1)),))
    assert derive_sets(later).demand_days == (1,)
    assert derive_sets(inst).demand_days == (0, 1)


def test_cached_sets_leave_equality_repr_and_pickle_unchanged():
    inst, twin = toy_1t1s(), toy_1t1s()
    before = pickle.dumps(inst)
    derive_sets(inst)
    assert inst == twin and repr(inst) == repr(twin)
    assert pickle.dumps(inst) == before
    back = pickle.loads(before)
    assert back == inst and derive_sets(back) == derive_sets(inst)


def test_an_instance_is_validated_once(tmp_path, monkeypatch):
    import blendplan
    from blendplan.builders import CenterOptions, build_center, make_plans
    calls = []
    real = blendplan.instance.validate_instance
    monkeypatch.setattr(blendplan.instance, "validate_instance",
                        lambda inst: calls.append(inst) or real(inst))
    inst = read_instance(blendplan.sample_instance_path())
    build_center(inst, make_plans(inst, 1.0), CenterOptions())
    assert calls == [inst]
    longer = extend_periodic(inst, 45)
    make_plans(longer, 1.0)
    write_instance(longer, tmp_path / "longer.json")
    jittered = randomize_supply(longer, 0, RandomizationParams(volume_rel=0.1))
    make_plans(jittered, 1.0)
    assert calls == [inst, longer, jittered]


# -- periodic extension ------------------------------------------------------


def test_extend_identity_at_same_horizon():
    inst = small_instance(3)
    assert extend_periodic(inst, inst.horizon) == inst


def test_extend_shift_rule():
    base = toy_1t1s()
    inst = replace(base, barges=(replace(base.barges[0], window=(0, 25)),),
                   runs=(replace(base.runs[0], days=(0, 3)),),
                   ops=replace(base.ops, horizon=30))
    out = extend_periodic(inst, 60)
    assert [b.window for b in out.barges] == [(0, 25), (30, 55)]
    assert [b.id for b in out.barges] == ["B1", "B1#1"]
    assert [r.days for r in out.runs] == [(0, 3), (30, 33)]


def test_extend_drops_entities_that_do_not_fit_whole():
    base = toy_1t1s()
    inst = replace(base, barges=(replace(base.barges[0], window=(0, 25)),),
                   runs=(replace(base.runs[0], days=(0, 3)),),
                   ops=replace(base.ops, horizon=30))
    out = extend_periodic(inst, 50)   # second barge copy would end on day 55
    assert [b.window for b in out.barges] == [(0, 25)]
    assert [r.days for r in out.runs] == [(0, 3), (30, 33)]


def test_extend_reproduces_33_arrivals():
    # 11 barges on a 119-day grid, windows ending after day 10: three full
    # replicas fit in 368 days, the fourth (shift 357) fits none.
    base = toy_1t1s()
    barges = tuple(
        Barge(f"B{i}", 1240.0, {"P": 50.0 + i * 0.1}, (3 * i, 11 + 3 * i), 1000.0, ("T1",))
        for i in range(11))
    inst = replace(base, barges=barges,
                   runs=(replace(base.runs[0], days=(0, 6)),),
                   ops=replace(base.ops, horizon=119))
    out = extend_periodic(inst, 368)
    assert len(out.barges) == 33
    # per-replica spec values survive exactly
    for b in out.barges:
        src = b.id.split("#")[0]
        assert b.specs == inst.barge(src).specs


def test_extend_below_horizon_rejected():
    inst = small_instance(4)
    with pytest.raises(InstanceError):
        extend_periodic(inst, inst.horizon - 1)


# -- randomized supply -------------------------------------------------------


def test_randomize_deterministic_per_seed():
    inst = small_instance(5)
    jit = RandomizationParams(volume_rel=0.1, spec_rel=0.1, window_shift=2)
    a = randomize_supply(inst, 7, jit)
    b = randomize_supply(inst, 7, jit)
    assert a == b
    c = randomize_supply(inst, 8, jit)
    assert c != a


def test_randomize_zero_jitter_is_identity():
    inst = small_instance(6)
    assert randomize_supply(inst, 1, RandomizationParams()) == inst


def test_randomize_respects_relative_range():
    inst = small_instance(7)
    jit = RandomizationParams(spec_rel=0.10)
    out = randomize_supply(inst, 3, jit)
    for b0, b1 in zip(inst.barges, out.barges):
        for q, v in b0.specs.items():
            assert 0.9 * v - 1e-12 <= b1.specs[q] <= 1.1 * v + 1e-12
        assert b1.window == b0.window
        assert b1.volume == b0.volume


def test_randomize_clamps_and_logs_a_nonpositive_volume_and_a_negative_spec(caplog):
    # at seed 2 the draws take B1's volume below 0 and its spec P below 0
    with caplog.at_level("WARNING", logger="blendplan.instance"):
        out = randomize_supply(toy_1t1s(), 2, RandomizationParams(volume_rel=3.0, spec_rel=3.0))
    (b,) = out.barges
    assert (b.volume, b.specs) == (4.0, {"P": 0.0})     # 1 % of 400
    assert [r.getMessage() for r in caplog.records] == [
        "randomize_supply: volume of B1 clamped to 4.000",
        "randomize_supply: spec P of B1 clamped to 0"]


def test_randomize_output_validates():
    inst = small_instance(8)
    out = randomize_supply(inst, 11, RandomizationParams(0.15, 0.15, 3))
    assert validate_instance(out).ok


@pytest.mark.parametrize("field, value", [("spec_rel", math.nan), ("volume_rel", math.inf),
                                          ("volume_rel", -0.1), ("window_shift", -2)])
def test_randomization_params_refuse_a_negative_or_non_finite_value(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite and >= 0$"):
        RandomizationParams(**{field: value})


# -- serialization -----------------------------------------------------------


def test_round_trip_bundled_sample(tmp_path, sample):
    p = tmp_path / "copy.json"
    write_instance(sample, p)
    assert read_instance(p) == sample


def test_round_trip_exact_numbers(tmp_path):
    inst = small_instance(9)
    # push awkward floats through the writer
    inst = replace(inst, barges=(replace(inst.barges[0], volume=1234.5678901234567),)
                   + inst.barges[1:])
    p = tmp_path / "i.json"
    write_instance(inst, p)
    back = read_instance(p)
    assert back.barges[0].volume == 1234.5678901234567
    assert back == inst


def test_missing_section_names_field(tmp_path):
    d = instance_to_dict(small_instance(0))
    del d["tanks"]
    with pytest.raises(InstanceError, match="tanks"):
        instance_from_dict(d)


def test_unknown_field_rejected():
    d = instance_to_dict(small_instance(0))
    d["barges"][0]["color"] = "red"
    with pytest.raises(InstanceError, match="color"):
        instance_from_dict(d)


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "schema": "blendplan-instance/1",\n  oops\n}')
    with pytest.raises(InstanceError, match="line 3"):
        read_instance(p)


def test_barge_type1_values_parse(tmp_path):
    d = instance_to_dict(toy_1t1s())
    d["barges"][0].update({"volume": 1240, "unload_penalty": 1000})
    inst = instance_from_dict(d)
    assert inst.barges[0].volume == 1240.0
    assert inst.barges[0].unload_penalty == 1000.0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_round_trip_property(seed):
    inst = tiny_instance(seed % 50)
    assert instance_from_dict(json.loads(json.dumps(instance_to_dict(inst)))) == inst
