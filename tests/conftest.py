"""Shared instance factories for the test suite.

Sizes are deliberately small: the flat MILPs here solve in well under a
minute, the brute-force oracle stays enumerable, and randomized families
are seeded so every run sees the same instances.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from blendplan.instance import (Barge, Instance, OpsParams, Run, SpecDef, Tank,
                                validate_instance)


def toy_1t1s() -> Instance:
    """One tank, one spec, one barge, two days, demand on both."""
    return Instance(
        specs=(SpecDef("P"),),
        barges=(Barge("B1", 400.0, {"P": 60.0}, (0, 1), 1000.0, ("T1",)),),
        tanks=(Tank("T1", 1000.0, 100.0, 500.0, {"P": 50.0}, 0.10),),
        runs=(Run("R1", (0, 1), 200.0, {"P": (40.0, 70.0)}, {}, 3000.0),),
        ops=OpsParams(2, 2, 7, 0.10, 2),
    )


def tiny_instance(seed: int) -> Instance:
    """Oracle-sized instance: <=2 barges, <=2 tanks, horizon <=6, one spec.

    Even seeds get wide demand windows (spec constraints slack); odd seeds
    get windows that hug the reachable blend range.
    """
    rng = np.random.default_rng(1000 + seed)
    n_tanks = 1 if seed % 3 == 0 else 2
    n_barges = 1 if n_tanks == 2 or seed % 2 == 0 else 2
    H = 6
    base = 50.0 + rng.integers(-4, 5)
    tanks = []
    for i in range(n_tanks):
        v_init = float(rng.choice([300.0, 400.0, 500.0]))
        tanks.append(Tank(f"T{i+1}", 1000.0, 100.0, v_init,
                          {"P": base + float(rng.uniform(-1.0, 1.0))}, 0.10))
    tank_ids = tuple(t.id for t in tanks)
    barges = []
    for i in range(n_barges):
        start = int(rng.integers(0, 2))
        length = int(rng.integers(1, 3)) if n_barges == 2 else int(rng.integers(2, 4))
        barges.append(Barge(
            f"B{i+1}", float(rng.choice([300.0, 400.0])),
            {"P": base + float(rng.uniform(-2.0, 2.0))},
            (start, min(start + length, H - 1)), 1000.0, tank_ids))
    lo = min([t.specs_init["P"] for t in tanks] + [b.specs["P"] for b in barges])
    hi = max([t.specs_init["P"] for t in tanks] + [b.specs["P"] for b in barges])
    if seed % 2 == 0:
        window = (lo - 5.0, hi + 5.0)
    else:
        pad = 0.35 * (hi - lo) + 0.2
        window = (lo + pad, hi - pad) if hi - lo > 2 * pad + 0.5 else (lo - 0.2, hi + 0.2)
    demand = float(rng.choice([150.0, 200.0]))
    r0 = int(rng.integers(1, 3))
    runs = (Run("R1", (r0, r0 + 2), demand, {"P": window}, {}, 3000.0),)
    inst = Instance((SpecDef("P"),), tuple(barges), tuple(tanks), runs,
                    OpsParams(2, 2, 7, 0.10, H))
    assert validate_instance(inst).ok
    return inst


def small_instance(seed: int, tight: bool = False) -> Instance:
    """Two tanks, two specs, a ratio pair, six days; flat-solvable fast.

    ``tight`` keeps the primary demand window wider than two grid cells at
    the usual precision (so the full buffer applies) but pins its upper
    edge inside the reachable hull: serving demand requires blending in
    high-spec barge material, pushing the feed against that edge.
    """
    rng = np.random.default_rng(2000 + seed)
    s1 = 48.0 + float(rng.uniform(0.0, 4.0))
    s2 = 11.0 + float(rng.uniform(0.0, 1.5))
    tanks = (
        Tank("T1", 1000.0, 100.0, float(rng.choice([350.0, 450.0])),
             {"S1": s1 - float(rng.uniform(0.8, 1.2)),
              "S2": s2 - float(rng.uniform(0.3, 0.5))}, 0.10),
        Tank("T2", 1400.0, 140.0, float(rng.choice([500.0, 650.0])),
             {"S1": s1 - float(rng.uniform(0.0, 0.8)),
              "S2": s2 - float(rng.uniform(0.0, 0.3))}, 0.10),
    )
    # one barge per tank, usually unloaded in one shot: each tank then sees
    # few blending events, the regime in which the midpoint representation
    # stays within half a cell; a few seeds keep split unloads for realism
    ul = 1 if seed % 5 else None
    barges = (
        Barge("B1", float(rng.choice([400.0, 500.0])),
              {"S1": s1 + float(rng.uniform(1.8, 2.6)),
               "S2": s2 + float(rng.uniform(0.5, 0.9))},
              (0, 2), 1000.0, ("T1",), max_unloads=ul),
        Barge("B2", float(rng.choice([350.0, 450.0])),
              {"S1": s1 + float(rng.uniform(1.0, 1.8)),
               "S2": s2 + float(rng.uniform(0.2, 0.6))},
              (2, 4), 800.0, ("T2",), max_unloads=ul),
    )
    vals1 = [t.specs_init["S1"] for t in tanks] + [b.specs["S1"] for b in barges]
    vals2 = [t.specs_init["S2"] for t in tanks] + [b.specs["S2"] for b in barges]
    if tight:
        # upper edge pinned near the achievable late blends (tank plus its
        # whole barge); window stays wider than two grid cells at eps=1 so
        # the full buffer applies, and the lower edge never binds
        def mix(tank, barge):
            return ((tank.v_init * tank.specs_init["S1"] + barge.volume * barge.specs["S1"])
                    / (tank.v_init + barge.volume))
        top = max(mix(tanks[0], barges[0]), mix(tanks[1], barges[1]))
        top += float(rng.uniform(-0.15, 0.15))
        w1 = (top - 3.0, top)
        w2 = (min(vals2) - 1.5, max(vals2) + 1.5)
    else:
        w1 = (min(vals1) - 4.0, max(vals1) + 4.0)
        w2 = (min(vals2) - 2.0, max(vals2) + 2.0)
    ratios = [v1 / v2 for v1, v2 in zip(vals1, vals2)]
    rwin = (min(ratios) - 0.8, max(ratios) + 0.8)
    runs = (
        Run("R1", (1, 2), float(rng.choice([200.0, 260.0])),
            {"S1": w1, "S2": w2}, {("S1", "S2"): rwin}, 3000.0),
        Run("R2", (4, 5), float(rng.choice([180.0, 240.0])),
            {"S1": w1, "S2": w2}, {("S1", "S2"): rwin}, 3000.0),
    )
    inst = Instance((SpecDef("S1"), SpecDef("S2")), barges, tanks, runs,
                    OpsParams(2, 2, 7, 0.10, 6))
    assert validate_instance(inst).ok
    return inst


def rolling_instance(seed: int, reps: int = 3) -> Instance:
    """Periodic extension of a 15-day base; digit counts kept small so the
    per-step MILPs stay light."""
    from blendplan.instance import extend_periodic
    rng = np.random.default_rng(3000 + seed)
    s1 = 49.0 + float(rng.uniform(0.0, 2.0))
    s2 = 11.5 + float(rng.uniform(0.0, 1.0))
    tanks = (
        Tank("T1", 1200.0, 120.0, 600.0,
             {"S1": s1 + float(rng.uniform(-0.5, 0.5)),
              "S2": s2 + float(rng.uniform(-0.3, 0.3))}, 0.10),
        Tank("T2", 1600.0, 160.0, 800.0,
             {"S1": s1 + float(rng.uniform(-0.5, 0.5)),
              "S2": s2 + float(rng.uniform(-0.3, 0.3))}, 0.10),
    )
    barges = (
        Barge("B1", 700.0,
              {"S1": s1 + float(rng.uniform(-0.8, 0.8)),
               "S2": s2 + float(rng.uniform(-0.4, 0.4))},
              (1, 5), 1000.0, ("T1", "T2")),
        Barge("B2", 600.0,
              {"S1": s1 + float(rng.uniform(-0.8, 0.8)),
               "S2": s2 + float(rng.uniform(-0.4, 0.4))},
              (7, 12), 800.0, ("T1", "T2")),
    )
    w1 = (s1 - 4.0, s1 + 4.0)
    w2 = (s2 - 2.0, s2 + 2.0)
    rwin = (max(0.5, (s1 - 4) / (s2 + 2)) - 0.3, (s1 + 4) / (s2 - 2) + 0.3)
    runs = (
        Run("R1", (1, 4), float(rng.choice([220.0, 260.0])),
            {"S1": w1, "S2": w2}, {("S1", "S2"): rwin}, 3000.0),
        Run("R2", (7, 12), float(rng.choice([180.0, 220.0])),
            {"S1": w1, "S2": w2}, {}, 3000.0),
    )
    base = Instance((SpecDef("S1"), SpecDef("S2")), barges, tanks, runs,
                    OpsParams(2, 2, 7, 0.10, 15))
    assert validate_instance(base).ok
    return extend_periodic(base, 15 * reps)


def zero_denominator_instance() -> Instance:
    """The bundled sample with tank T1's initial ``S2`` at 0.0: valid, as
    every run's ``S2`` window stays positive, but the reachable minimum of
    the ratio denominator ``S2`` is 0."""
    import blendplan
    inst = blendplan.read_instance(blendplan.sample_instance_path())
    t1, *rest = inst.tanks
    inst = replace(inst, tanks=(replace(t1, specs_init={**t1.specs_init, "S2": 0.0}), *rest))
    assert validate_instance(inst).ok
    return inst


@pytest.fixture
def toy():
    return toy_1t1s()


@pytest.fixture
def sample():
    import blendplan
    return blendplan.read_instance(blendplan.sample_instance_path())
