"""Instance and plan files: one typed reader per value shape, byte-stable
writers, and a refused value named by its path, never a traceback."""

import copy
import json
import math

import pytest

from blendplan import sample_instance_path
from blendplan.builders import build_center, make_plans
from blendplan.cli import main
from blendplan.instance import (InstanceError, instance_from_dict, instance_to_dict,
                                write_instance)
from blendplan.simulate import FlowPlan, plan_from_dict, write_plan
from blendplan.solve import extract_flow_plan, solve
from conftest import small_instance

NAN = math.nan
# the values every leaf is set to in the corruption sweep
CORRUPT = [None, "x", [], {}, 0.5, NAN, True]


def _sample():
    with open(sample_instance_path()) as fh:
        return json.load(fh)


def _with(data, where, value):
    data = copy.deepcopy(data)
    *path, last = where
    node = data
    for key in path:
        node = node[key]
    node[last] = value
    return data


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A small instance file and its solved flat plan as JSON data."""
    inst = small_instance(0)
    model = build_center(inst, make_plans(inst, 1.0))
    plan = extract_flow_plan(model, solve(model))
    path = tmp_path_factory.mktemp("solved") / "inst.json"
    write_instance(inst, path)
    return str(path), plan.to_dict()


def _run(command, data, tmp_path, capsys, instance=None):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))    # NaN as Python's json writes it
    args = [command, "--instance", instance or str(path)]
    if instance:
        args += ["--plan", str(path)]
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


# (where in the file, the value put there, the start of the error); the
# probes on the bundled sample through `validate`
INSTANCE_PROBES = [
    (("barges", 0, "window"), [0.9, 6.7], "barges[0].window[0]: expected a whole number, got 0.9"),
    (("ops", "max_unloads_per_barge"), 2.9,
     "ops.max_unloads_per_barge: expected a whole number, got 2.9"),
    (("barges", 0, "volume"), "400", 'barges[0].volume: expected a number, got "400"'),
    (("barges", 0, "window"), ["1", "3"], 'barges[0].window[0]: expected a whole number, got "1"'),
    (("runs", 0, "spec_bounds", "S1"), [46.5, 53.0, 60.0],
     "runs[0].spec_bounds[S1]: expected [lo, hi], got [46.5, 53.0, 60.0]"),
    (("barges", 0, "volume"), None, "barges[0].volume: expected a number, got null"),
    (("barges", 0, "window"), None, "barges[0].window: expected [first, last], got null"),
    (("barges", 0, "specs", "S1"), None, "barges[0].specs[S1]: expected a number, got null"),
    (("barges", 0, "max_unloads"), None, "barges[0].max_unloads: expected a whole number"),
    (("barges", 0, "min_unload_pct"), None, "barges[0].min_unload_pct: expected a number"),
    (("barges", 0, "volume"), [400], "barges[0].volume: expected a number, got [400]"),
    (("barges", 0, "specs"), [1, 2], "barges[0].specs: expected a JSON object, got [1, 2]"),
    (("runs", 0, "spec_bounds", "S1"), [46.5], "runs[0].spec_bounds[S1]: expected [lo, hi]"),
    (("runs", 0, "ratio_bounds", "S1/S2"), [3.4],
     "runs[0].ratio_bounds[S1/S2]: expected [lo, hi]"),
    (("runs", 0, "days"), [NAN, 4], "runs[0].days[0]: expected a whole number, got NaN"),
    (("tanks", 0, "v_max"), True, "tanks[0].v_max: expected a number, got true"),
    (("specs", 0, "id"), 1, "specs[0].id: expected a string, got 1"),
    (("barges", 0, "allowed_tanks"), "T1", 'barges[0].allowed_tanks: expected an array'),
    (("barges", 0, "volume"), 10 ** 400, "barges[0].volume: expected a number, got 1000"),
]


@pytest.mark.parametrize("where,value,want", INSTANCE_PROBES)
def test_validate_refuses_a_value_of_the_wrong_shape(where, value, want, tmp_path, capsys):
    with pytest.raises(InstanceError) as err:
        instance_from_dict(_with(_sample(), where, value))
    assert str(err.value).startswith(want)
    rc, _, err = _run("validate", _with(_sample(), where, value), tmp_path, capsys)
    assert rc == 2 and err.startswith(f"error: {want}")


def test_whole_numbers_read_from_integral_floats():
    data = _with(_sample(), ("barges", 0, "window"), [1.0, 3.0])
    assert instance_from_dict(data).barges[0].window == (1, 3)


def test_optional_members_read_fresh():
    data = _sample()
    del data["specs"][0]["unit"]
    for r in data["runs"]:
        r.pop("ratio_bounds", None)
    inst = instance_from_dict(data)
    assert inst.specs[0].unit == "vol%"
    first, second = inst.runs[0].ratio_bounds, inst.runs[1].ratio_bounds
    assert first == {} and first is not second
    # written back: unit and ratio_bounds always, unset overrides never
    out = instance_to_dict(inst)
    assert out["specs"][0]["unit"] == "vol%" and out["runs"][0]["ratio_bounds"] == {}
    assert "max_unloads" not in out["barges"][0]


def test_sample_writes_back_byte_identical(tmp_path, sample):
    path = tmp_path / "s.json"
    write_instance(sample, path)
    with open(sample_instance_path()) as fh:
        assert path.read_text() == fh.read()


def test_plan_members_read_fresh_and_empty():
    a, b = (plan_from_dict({"schema": "blendplan-plan/1"}) for _ in range(2))
    assert a == FlowPlan() and a.y_in is not b.y_in and a.mis is not b.mis


def _plan_probes(plan):
    return [
        (("y_in", 0, 2), 4.5, "y_in[0][2]: expected a whole number, got 4.5"),
        (("gamma", 0, 2), 0.7, "gamma[0][2]: expected 0 or 1, got 0.7"),
        (("extra",), 1, "plan: unknown field(s) ['extra']"),
        (("y_in", 0, 3), None, "y_in[0][3]: expected a finite number, got null"),
        (("v_unused",), [], "v_unused: expected a JSON object, got []"),
        (("mis", 0), [1], "mis[0]: expected [day, volume], got [1]"),
        (("y_out",), plan["y_out"] + plan["y_out"][:1], f"y_out[{len(plan['y_out'])}]: "
         "repeats the key of an earlier entry"),
        (("schema",), "blendplan-plan/0", "schema: expected 'blendplan-plan/1'"),
    ]


def test_audit_refuses_a_plan_value_of_the_wrong_shape(solved, tmp_path, capsys):
    inst_path, plan = solved
    for where, value, want in _plan_probes(plan):
        with pytest.raises(ValueError) as err:
            plan_from_dict(_with(plan, where, value))
        assert str(err.value).startswith(want)
        rc, _, err = _run("audit", _with(plan, where, value), tmp_path, capsys,
                          instance=inst_path)
        assert rc == 2 and err.startswith(f"error: {want}"), (where, err)
    rc, _, err = _run("audit", [plan], tmp_path, capsys, instance=inst_path)
    assert rc == 2 and err.startswith("error: plan: expected a JSON object, got [{")


@pytest.mark.parametrize("field,where,part,name", [
    ("y_in", 0, "barge", "B9"), ("y_in", 1, "tank", "T9"), ("y_out", 0, "tank", "T9"),
    ("gamma", 0, "barge", "B9"), ("sigma", 0, "tank", "T9"), ("v_unused", None, "barge", "B9"),
    ("sigma", 1, "day", 99), ("mis", 0, "day", 99),
])
@pytest.mark.parametrize("command", ["audit", "simulate"])
def test_a_plan_naming_an_unknown_id_is_refused(solved, tmp_path, capsys, command, field,
                                                where, part, name):
    inst_path, plan = solved
    if field == "v_unused":     # a keyed object: rename its first key
        data = copy.deepcopy(plan)
        first = min(data["v_unused"])
        data["v_unused"][name] = data["v_unused"].pop(first)
    else:
        data = _with(plan, (field, 0, where), name)
    rc, _, err = _run(command, data, tmp_path, capsys, instance=inst_path)
    assert rc == 2 and err.startswith(
        f"error: {field} names {part} {name!r}, which the instance lacks"), err


@pytest.mark.parametrize("field", ["gamma", "sigma"])
@pytest.mark.parametrize("value", [2, -1, 7])
def test_a_plan_indicator_other_than_0_or_1_is_refused(solved, tmp_path, capsys, field, value):
    inst_path, plan = solved
    data = _with(plan, (field, 0, 2), value)
    want = f"{field}[0][2]: expected 0 or 1, got {value}"
    with pytest.raises(ValueError) as err:
        plan_from_dict(data)
    assert str(err.value) == want
    rc, _, err = _run("audit", data, tmp_path, capsys, instance=inst_path)
    assert rc == 2 and err == f"error: {want}\n"


def test_solved_plan_writes_back_byte_identical(solved, tmp_path):
    _, plan = solved
    path = tmp_path / "plan.json"
    write_plan(plan_from_dict(plan), path)
    assert path.read_text() == json.dumps(plan, indent=2) + "\n"


# -- corruption sweep -----------------------------------------------------------

# keyed objects of each format: their members are paths `[key]`, not `.key`
KEYED = {"specs_init", "specs", "spec_bounds", "ratio_bounds", "v_unused"}
WHOLE = {"window", "days", "max_unloads", "max_unloads_per_day", "max_unloads_per_barge",
         "max_unload_gap", "horizon"}
# the whole-number and string parts of each plan entry; the others are tons
PLAN_WHOLE = {"y_in": {2}, "y_out": {1}, "gamma": {1, 2}, "sigma": {1, 2}, "mis": {0}}
PLAN_STRING = {"y_in": {0, 1}, "y_out": {0}, "gamma": {0}, "sigma": {0}, "mis": set()}


def _leaves(node, where=(), path="", member=None, keyed=False):
    """(where, path, member, position) of every leaf: its keys from the top,
    its path as errors print it, the record member it sits under and its
    position in that member's array (None outside arrays)."""
    if isinstance(node, dict):
        for k, v in node.items():
            if keyed:
                yield from _leaves(v, where + (k,), f"{path}[{k}]", member)
            else:
                yield from _leaves(v, where + (k,), f"{path}.{k}" if path else k, k,
                                   k in KEYED and isinstance(v, dict))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _leaves(v, where + (i,), f"{path}[{i}]", member)
    else:
        yield where, path, member, where[-1] if isinstance(where[-1], int) else None


def _fits(kind, value):
    if kind == "schema":
        return False        # no corrupt value is the schema id
    if kind == "string":
        return isinstance(value, str)
    if kind == "whole":
        return False        # no corrupt value is a whole number
    finite = kind == "finite"
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and not (finite and math.isnan(value)))


def _instance_kind(where, member):
    if member == "schema":
        return "schema"
    if member in WHOLE:
        return "whole"
    if isinstance(_sample_leaf(where), str):
        return "string"
    return "number"


def _sample_leaf(where):
    node = _sample()
    for k in where:
        node = node[k]
    return node


def test_validate_never_fails_without_a_path_on_any_corrupt_leaf(tmp_path, capsys):
    data, checked = _sample(), 0
    leaves = list(_leaves(data))
    for where, path, member, _ in leaves:
        kind = _instance_kind(where, member)
        for value in CORRUPT:
            rc, out, err = _run("validate", _with(data, where, value), tmp_path, capsys)
            if _fits(kind, value):
                # read: the validation report is the answer, never an error line
                assert rc in (0, 2) and not err and "ok" in json.loads(out), (path, value)
            else:
                assert rc == 2 and err.startswith(f"error: {path}: expected "), (path, value, err)
                checked += 1
    # null, [], {} and true fit no shape
    assert checked >= 4 * len(leaves) > 400


def test_audit_never_fails_without_a_path_on_any_corrupt_leaf(solved, tmp_path, capsys):
    inst_path, plan = solved
    checked, leaves = 0, list(_leaves(plan))
    for where, path, member, pos in leaves:
        if member in ("schema", "v_unused"):
            kind = {"schema": "schema", "v_unused": "finite"}[member]
        else:
            kind = ("whole" if pos in PLAN_WHOLE[member] else
                    "string" if pos in PLAN_STRING[member] else "finite")
        for value in CORRUPT:
            rc, out, err = _run("audit", _with(plan, where, value), tmp_path, capsys,
                                instance=inst_path)
            if _fits(kind, value):
                # a plan of the right shape: audited, or refused by the simulator
                assert rc in (0, 1) or not err.startswith(f"error: {path}"), (path, value, err)
            else:
                assert rc == 2 and err.startswith(f"error: {path}: expected "), (path, value, err)
                checked += 1
    assert checked >= 4 * len(leaves) > 100
