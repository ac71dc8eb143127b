"""Instance model: validation, derived sets, generation, serialization."""

import json
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendplan.instance import (Barge, InstanceError, RandomizationParams, Tank,
                                derive_sets, extend_periodic, instance_from_dict,
                                instance_to_dict, randomize_supply, read_instance,
                                validate_instance, write_instance)
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


def test_derive_sets_windows_and_demand_days():
    inst = small_instance(1)
    ds = derive_sets(inst)
    # barge available exactly inside its inclusive window
    for b in inst.barges:
        for t in range(inst.horizon):
            inside = b.window[0] <= t <= b.window[1]
            assert (b.id in ds.available(t)) == inside
    want = set()
    for r in inst.runs:
        want |= set(range(r.days[0], r.days[1] + 1))
    assert set(ds.demand_days) == want
    # off-window day has no barges
    free = [t for t in range(inst.horizon)
            if all(not (b.window[0] <= t <= b.window[1]) for b in inst.barges)]
    for t in free:
        assert ds.available(t) == ()


def test_derive_sets_cardinality_two_ways():
    inst = small_instance(2)
    ds = derive_sets(inst)
    for t in range(inst.horizon):
        by_scan = sum(1 for b in inst.barges if b.window[0] <= t <= b.window[1])
        assert len(ds.available(t)) == by_scan


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


def test_randomize_output_validates():
    inst = small_instance(8)
    out = randomize_supply(inst, 11, RandomizationParams(0.15, 0.15, 3))
    assert validate_instance(out).ok


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
