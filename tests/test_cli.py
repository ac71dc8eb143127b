"""End-to-end CLI coverage on small inputs."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import blendplan
import blendplan.rolling
from blendplan.builders import CenterOptions, build_center, build_mccormick, make_plans
from blendplan.cli import RESULT_FIELDS, _SOLVE_DEFAULTS, main, run_solve_config
from blendplan.instance import write_instance
from blendplan.solve import SolveResult
from conftest import small_instance, tiny_instance, zero_denominator_instance


@pytest.fixture
def inst_path(tmp_path):
    p = tmp_path / "inst.json"
    write_instance(small_instance(0), p)
    return str(p)


@pytest.fixture
def sample_path():
    return blendplan.sample_instance_path()


@pytest.fixture
def tiny_path(tmp_path):
    p = tmp_path / "tiny.json"
    write_instance(tiny_instance(0), p)
    return str(p)


def test_validate_ok(inst_path, capsys):
    assert main(["validate", "--instance", inst_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True


def test_validate_bad_file(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["validate", "--instance", str(p)]) == 2


def test_gen_extend_and_randomize(inst_path, tmp_path, capsys):
    out = str(tmp_path / "ext.json")
    rc = main(["gen", "--instance", inst_path, "--out", out, "--extend", "12",
               "--seed", "3", "--jitter-volume", "0.05"])
    assert rc == 0
    ext = blendplan.read_instance(out)
    assert ext.horizon == 12
    assert len(ext.barges) == 4
    # determinism
    out2 = str(tmp_path / "ext2.json")
    main(["gen", "--instance", inst_path, "--out", out2, "--extend", "12",
          "--seed", "3", "--jitter-volume", "0.05"])
    assert open(out).read() == open(out2).read()


@pytest.mark.parametrize("extend", ["0", "5"])
def test_gen_refuses_an_extension_below_the_source_horizon(sample_path, tmp_path, capsys,
                                                           extend):
    out = tmp_path / "g.json"
    assert main(["gen", "--instance", sample_path, "--out", str(out), "--extend", extend]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: target horizon {extend} is below the source horizon 30")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--jitter-volume", "0.3"], ["--jitter-window", "2"],
                                   ["--jitter-spec", "nan", "--jitter-window", "2"]],
                         ids=lambda f: "_".join(a.lstrip("-") for a in f))
def test_gen_refuses_jitter_flags_without_seed(inst_path, tmp_path, capsys, flags):
    out = tmp_path / "g.json"
    assert main(["gen", "--instance", inst_path, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: jitter flags need --seed")
    assert all(f in err for f in flags if f.startswith("--"))
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--jitter-spec", "nan", "spec_rel"), ("--jitter-volume", "inf", "volume_rel"),
    ("--jitter-volume", "-0.1", "volume_rel"), ("--jitter-window", "-2", "window_shift"),
])
def test_gen_refuses_a_negative_or_non_finite_jitter(inst_path, tmp_path, capsys, flag, value,
                                                     field):
    # unchecked, these reach numpy: nan and inf end in a traceback, a
    # negative value in a message that names no flag
    out = tmp_path / "g.json"
    assert main(["gen", "--instance", inst_path, "--out", str(out), "--seed", "1",
                 flag, value]) == 2
    assert capsys.readouterr().err == f"error: {field} must be finite and >= 0\n"
    assert not out.exists()


def test_gen_takes_default_jitter_flags_without_seed(inst_path, tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--instance", inst_path, "--out", str(out),
                 "--jitter-volume", "0", "--jitter-window", "0"]) == 0
    assert out.exists()


def test_solve_pipeline_writes_artifacts(tiny_path, tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    rc = main(["solve", "--instance", tiny_path, "--out-dir", out_dir,
               "--method", "center", "--eps-hat", "1.0", "--time-limit", "120"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["status"] in ("ok", "optimal", "gap_reached")
    for name in ("plan.json", "trace.json", "trace.csv", "audit.json",
                 "record.json", "results.csv"):
        assert os.path.exists(os.path.join(out_dir, name)), name
    with open(os.path.join(out_dir, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["pct_loss"]) == pytest.approx(rec["pct_loss"])


def test_solve_then_audit_loss_simulate_roundtrip(tiny_path, tmp_path, capsys):
    out_dir = str(tmp_path / "run")
    main(["solve", "--instance", tiny_path, "--out-dir", out_dir,
          "--time-limit", "120"])
    capsys.readouterr()
    plan = os.path.join(out_dir, "plan.json")
    assert main(["audit", "--instance", tiny_path, "--plan", plan]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True
    assert main(["loss", "--instance", tiny_path, "--plan", plan]) == 0
    ls = json.loads(capsys.readouterr().out)
    rec = json.load(open(os.path.join(out_dir, "record.json")))
    assert ls["pct_loss"] == pytest.approx(rec["pct_loss"], abs=1e-9)
    out_trace = str(tmp_path / "trace2.json")
    assert main(["simulate", "--instance", tiny_path, "--plan", plan,
                 "--out", out_trace]) == 0
    t1 = json.load(open(out_trace))
    t2 = json.load(open(os.path.join(out_dir, "trace.json")))
    assert t1 == t2


def test_solve_rolling_scheme(tiny_path, tmp_path, capsys):
    out_dir = str(tmp_path / "roll")
    rc = main(["solve", "--instance", tiny_path, "--out-dir", out_dir,
               "--scheme", "full", "--periods", "fixed", "--dt", "3",
               "--time-limit", "300"])
    assert rc == 0
    steps = [json.loads(line) for line in open(os.path.join(out_dir, "steps.jsonl"))]
    assert steps and all("objective" in s for s in steps)


def test_rolling_steps_log_nodes_and_start(tiny_path, tmp_path, capsys):
    out_dir = str(tmp_path / "roll")
    assert main(["solve", "--instance", tiny_path, "--out-dir", out_dir,
                 "--scheme", "partial", "--periods", "run", "--dt", "2",
                 "--time-limit", "300"]) == 0
    steps = [json.loads(line) for line in open(os.path.join(out_dir, "steps.jsonl"))]
    assert len(steps) >= 2
    assert all(isinstance(s["nodes"], int) and s["nodes"] >= 0 for s in steps)
    # no step's binaries are fixed, so each step with binaries ends in its
    # first try; the last step has no barge and no demand left: no plan
    # gives it a start
    assert [s["start"] for s in steps] == ["flow"] * (len(steps) - 1) + [None]


def test_solve_stdout_is_one_json_object(sample_path, tmp_path, capfd, monkeypatch):
    # Without the first try this solve takes the all-miss start to the full
    # run, where HiGHS prints a debug line to fd 1; the CLI's stdout must
    # still be its JSON record alone, and the line goes to stderr.  HiGHS
    # prints it 1.5-2 s into the run on a 2-core host, so the limit is 4 s
    monkeypatch.setattr(sys.modules["blendplan.solve"], "_flow_relaxation",
                        lambda runs, lp: None)
    rc = main(["solve", "--method", "mccormick", "--mip-gap", "0.0005", "--time-limit", "4",
               "--instance", sample_path, "--out-dir", str(tmp_path / "o")])
    out, err = capfd.readouterr()
    record = json.loads(out)
    assert rc == 0 and record["status"] in ("optimal", "gap_reached", "time_limit")
    assert record["start"] == "all-miss"
    assert "HighsMipSolverData::transformNewIntegerFeasibleSolution tmpSolver.run();" in err


def test_rolling_record_reports_worst_step_status(tiny_path, tmp_path, monkeypatch, capsys):
    real_solve = blendplan.rolling.solve
    calls = []

    def solve_second_step_hits_limit(model, opts):
        calls.append(1)
        res = real_solve(model, opts)
        return replace(res, status="time_limit") if len(calls) == 2 else res

    monkeypatch.setattr(blendplan.rolling, "solve", solve_second_step_hits_limit)
    out_dir = str(tmp_path / "roll")
    rc = main(["solve", "--instance", tiny_path, "--out-dir", out_dir,
               "--scheme", "full", "--periods", "fixed", "--dt", "2",
               "--time-limit", "300"])
    assert rc == 0
    steps = [json.loads(line) for line in open(os.path.join(out_dir, "steps.jsonl"))]
    assert len(steps) >= 2 and steps[1]["status"] == "time_limit"
    rec = json.load(open(os.path.join(out_dir, "record.json")))
    assert rec["status"] == "time_limit"
    assert rec["bound"] is None


def test_rolling_step_without_values_exits_with_error(tiny_path, tmp_path, monkeypatch, capsys):
    real_solve = blendplan.rolling.solve

    def solve_hits_limit_without_values(model, opts):
        res = real_solve(model, opts)
        return replace(res, status="time_limit", objective=None, values=[])

    monkeypatch.setattr(blendplan.rolling, "solve", solve_hits_limit_without_values)
    rc = main(["solve", "--instance", tiny_path, "--out-dir", str(tmp_path / "roll"),
               "--scheme", "full", "--periods", "fixed", "--dt", "3",
               "--time-limit", "300"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 0: solver returned time_limit")
    assert "Traceback" not in err


def _solve_without_plan(model, opts):
    return SolveResult("time_limit", None, None, message="no incumbent")


def test_flat_solve_without_a_plan_is_an_error(tiny_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(blendplan.cli, "solve", _solve_without_plan)
    out_dir = tmp_path / "flat"
    assert main(["solve", "--instance", tiny_path, "--out-dir", str(out_dir)]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("error: solver returned time_limit: no incumbent")
    assert "Traceback" not in cap.err
    assert list(out_dir.iterdir()) == []


def test_bench_records_a_flat_solve_without_a_plan_as_an_error(tiny_path, tmp_path, capsys,
                                                               monkeypatch):
    real_solve = blendplan.cli.solve
    calls = []

    def first_solve_without_plan(model, opts):
        calls.append(model)
        return _solve_without_plan(model, opts) if len(calls) == 1 else real_solve(model, opts)

    monkeypatch.setattr(blendplan.cli, "solve", first_solve_without_plan)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": [{"instance": tiny_path}, {"instance": tiny_path}]}))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    cap = capsys.readouterr()
    assert "Traceback" not in cap.err
    assert json.loads(cap.out) == {"runs": 2, "ok": 1, "out_dir": str(out_dir)}
    with open(out_dir / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "error"
    assert rows[1]["status"] in ("optimal", "gap_reached")
    assert not (out_dir / "run_000" / "plan.json").exists()
    assert (out_dir / "run_001" / "plan.json").exists()
    # the failed run counts against the method's time profile
    with open(out_dir / "profile_time_center.csv") as fh:
        (profile,) = csv.DictReader(fh)
    assert float(profile["fraction_finished"]) == 0.5


def test_extraction_error_exits_with_error(sample_path, tmp_path, capsys, monkeypatch):
    real_solve = blendplan.cli.solve

    def solve_with_every_unload_on(model, opts):
        res = real_solve(model, opts)
        for v in model.vars:
            if v.kind == "gamma":
                res.values[v.col] = 1.0
        return res

    monkeypatch.setattr(blendplan.cli, "solve", solve_with_every_unload_on)
    assert main(["solve", "--instance", sample_path, "--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rounded binaries violate counting limits: "
                          "barge_unload_limit[B1] over by ")
    assert "Traceback" not in err


def test_partial_roll_refuses_split_runs_before_out_dir(sample_path, tmp_path, capsys):
    # fixed 7-day periods split run R2 of the sample at day 7
    out_dir = tmp_path / "o"
    assert main(["solve", "--instance", sample_path, "--out-dir", str(out_dir),
                 "--scheme", "partial", "--periods", "fixed", "--h-nf", "30"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: step boundary 7 splits run R2; use run-based periods with the partial scheme")
    assert not out_dir.exists()


def test_partial_roll_defaults_to_run_based_periods(inst_path, tmp_path, capsys):
    # fixed 2-day periods would split run R1 at day 2; the default periods do not
    assert main(["solve", "--instance", inst_path, "--out-dir", str(tmp_path / "o"),
                 "--scheme", "partial", "--dt", "2", "--time-limit", "300"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["scheme"], record["steps"], record["violations"]) == ("partial", 2, 0)


def test_infeasible_flat_solve_writes_its_record(tiny_path, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(blendplan.cli, "solve", lambda model, opts: SolveResult(
        "infeasible", None, None, message="Infeasible"))
    out_dir = tmp_path / "flat"
    assert main(["solve", "--instance", tiny_path, "--out-dir", str(out_dir)]) == 1
    printed = json.loads(capsys.readouterr().out)
    assert sorted(p.name for p in out_dir.iterdir()) == ["record.json", "results.csv"]
    record = json.loads((out_dir / "record.json").read_text())
    assert record == printed and list(record) == RESULT_FIELDS
    assert {k: record[k] for k in ("record_version", "scheme", "horizon", "eps_hat", "status",
                                   "steps", "message", "objective", "pct_loss")} == {
        "record_version": 3, "scheme": "flat", "horizon": 6, "eps_hat": "1.0",
        "status": "infeasible", "steps": 0, "message": "Infeasible", "objective": None,
        "pct_loss": None}
    assert record["wall_time_s"] >= 0
    with open(out_dir / "results.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row == {k: "" if v is None else str(v) for k, v in record.items()}


def test_bench_error_row_keeps_its_reason(sample_path, tmp_path, capsys):
    # HiGHS stops before its first incumbent at this limit
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": [{"instance": sample_path, "time_limit": 0.001}]}))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    with open(out_dir / "results.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["record_version"] == "3" and row["status"] == "error"
    assert row["message"].startswith("solver returned time_limit")


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_results_of_another_record_version_are_refused(tiny_path, tmp_path, capsys, command):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    results = out_dir / "results.csv"
    v1 = ",".join(RESULT_FIELDS[:-1]) + "\r\n1,x.json,center,flat,30,1.0,optimal,1,1,0,0,0,0,0.1\r\n"
    results.write_bytes(v1.encode())
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": [{"instance": tiny_path}]}))
    argv = {"solve": ["solve", "--instance", tiny_path, "--out-dir", str(out_dir)],
            "bench": ["bench", "--config", str(cfg), "--out-dir", str(out_dir)]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {results} has columns") and "record version 3" in err
    assert results.read_bytes() == v1.encode()
    assert list(out_dir.iterdir()) == [results]


def test_validate_reports_an_invalid_instance(tmp_path, sample_path, capsys):
    data = json.load(open(sample_path))
    assert data["tanks"][0]["id"] == "T1"
    data["tanks"][0]["v_min"] = data["tanks"][0]["v_max"] + 1.0
    p = tmp_path / "inverted.json"
    p.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(p)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any(v.startswith("tanks[0](T1)") for v in report["violations"])


@pytest.mark.parametrize("command", ["validate", "solve", "simulate", "export"])
def test_missing_path_exits_2_without_traceback(tiny_path, tmp_path, capsys, command):
    missing = str(tmp_path / "missing.json")
    argv = {
        "validate": ["validate", "--instance", missing],
        "solve": ["solve", "--instance", missing, "--out-dir", str(tmp_path / "o")],
        "simulate": ["simulate", "--instance", tiny_path, "--plan", missing],
        "export": ["export", "--instance", tiny_path, "--method", "center",
                   "--out", str(tmp_path / "no_such_dir" / "c.mps")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err
    # nothing is written: the solve fails at reading its instance, before out_dir
    assert list(tmp_path.iterdir()) == [tmp_path / "tiny.json"]


def test_export_mps_and_lp(inst_path, tmp_path, capsys):
    mps = str(tmp_path / "m.mps")
    assert main(["export", "--instance", inst_path, "--method", "center",
                 "--out", mps]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["bilinear"] == 0
    assert os.path.exists(mps) and os.path.exists(mps + ".tags.json")
    lp = str(tmp_path / "m.lp")
    assert main(["export", "--instance", inst_path, "--method", "exact-split",
                 "--out", lp]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["bilinear"] > 0
    # byte-identical re-export
    lp2 = str(tmp_path / "m2.lp")
    main(["export", "--instance", inst_path, "--method", "exact-split", "--out", lp2])
    assert open(lp).read() == open(lp2).read()


def test_export_linear_model_as_lp(inst_path, tmp_path, capsys):
    lp = str(tmp_path / "c.lp")
    assert main(["export", "--instance", inst_path, "--method", "center", "--out", lp]) == 0
    assert json.loads(capsys.readouterr().out)["bilinear"] == 0
    text = open(lp).read()
    assert "Subject To" in text and "Binaries" in text and text.endswith("End\n")
    assert "[" not in text


@pytest.mark.parametrize("method,flags,options", [
    ("center", ["--no-tighten"], {"opts": CenterOptions(tighten=False)}),
    ("mccormick", ["--no-tighten"], {"opts": CenterOptions(tighten=False)}),
], ids=["center-no-tighten", "mccormick-no-tighten"])
def test_export_matches_library_model(inst_path, tmp_path, capsys, method, flags, options):
    out = tmp_path / "cli.mps"
    assert main(["export", "--instance", inst_path, "--method", method, "--out", str(out),
                 "--eps-hat", "0.5", *flags]) == 0
    inst = blendplan.read_instance(inst_path)
    build = {"center": build_center, "mccormick": build_mccormick}[method]
    plans = make_plans(inst, 0.5)
    lib, default = tmp_path / "lib.mps", tmp_path / "default.mps"
    build(inst, plans, **options).write_mps(lib)
    build(inst, plans).write_mps(default)
    assert out.read_bytes() == lib.read_bytes()
    assert out.read_bytes() != default.read_bytes()   # the flags change the model


def test_export_refuses_unknown_spec_in_eps_hat(sample_path, tmp_path, capsys):
    # a misspelt spec is refused, not dropped with its precision unchecked
    out = tmp_path / "m.mps"
    assert main(["export", "--instance", sample_path, "--method", "center",
                 "--eps-hat", "S1=1,S2=1,S9=0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "S9" in err
    assert list(tmp_path.iterdir()) == []


def test_zero_denominator_instance_exports_tightened(tmp_path, capsys):
    # no reachable S2 is positive; the ratio buffers fall back to the run's S2 floor
    path = tmp_path / "zero.json"
    write_instance(zero_denominator_instance(), path)
    out = tmp_path / "m.mps"
    assert main(["export", "--instance", str(path), "--method", "center",
                 "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["binary"] > 0
    assert out.exists()


def test_audit_and_loss_read_a_plan_file_without_entries(sample_path, tmp_path, capsys):
    # no flows and no v_unused or mis: every barge unused, every demand missed
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema": "blendplan-plan/1"}))
    assert main(["audit", "--instance", sample_path, "--plan", str(plan)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True
    assert main(["loss", "--instance", sample_path, "--plan", str(plan)]) == 0
    assert json.loads(capsys.readouterr().out)["pct_loss"] == 100.0


@pytest.mark.parametrize("command", ["loss", "simulate", "audit"])
def test_a_plan_naming_a_barge_the_instance_lacks_exits_2(sample_path, tmp_path, capsys,
                                                          command):
    # unchecked, loss reports 0 % loss for this plan and exits 0
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"schema": "blendplan-plan/1",
                                "y_in": [["BX", "T1", 3, 100.0]]}))
    assert main([command, "--instance", sample_path, "--plan", str(plan)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: y_in names barge 'BX', which the instance lacks\n")


@pytest.mark.parametrize("method", ["exact-mix", "exact-split"])
@pytest.mark.parametrize("flags", [["--eps-hat", "0.25"], ["--no-tighten"]],
                         ids=lambda f: f[0].lstrip("-"))
def test_export_exact_rejects_model_flags(inst_path, tmp_path, capsys, method, flags):
    # the exact models have no digits and no tightening: the flags cannot apply
    out = tmp_path / "m.lp"
    assert main(["export", "--instance", inst_path, "--method", method, "--out", str(out),
                 *flags]) == 2
    assert flags[0] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "inst.json"]


@pytest.mark.parametrize("key,value", [("backend", "cli"), ("time-limit", 5),
                                       ("coupling", True), ("relax_avol", True)])
def test_solve_config_rejects_unknown_key(tiny_path, tmp_path, key, value):
    # a retired or misspelt key fails the run instead of running the defaults
    run = {"instance": tiny_path, "method": "center", "time_limit": 120, key: value}
    with pytest.raises(ValueError, match=key):
        run_solve_config({**run, "out_dir": str(tmp_path / "one")})
    assert not (tmp_path / "one").exists()
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"runs": [run]}))
    out_dir = str(tmp_path / "bench")
    assert main(["bench", "--config", str(cfg_path), "--out-dir", out_dir]) == 2
    with open(os.path.join(out_dir, "results.csv")) as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == ["error"]


@pytest.mark.parametrize("command,flag", [("solve", "--coupling"), ("export", "--relax-avol")])
def test_deleted_model_flags_are_unknown(inst_path, tmp_path, capsys, command, flag):
    out = {"solve": ["--out-dir", str(tmp_path / "o")],
           "export": ["--method", "center", "--out", str(tmp_path / "m.mps")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", inst_path, *out, flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "inst.json"]


@pytest.mark.parametrize("flag", ["--time-limit", "--mip-gap"])
def test_solve_rejects_nan_option(inst_path, tmp_path, capsys, flag):
    out_dir = tmp_path / "o"
    assert main(["solve", "--instance", inst_path, "--out-dir", str(out_dir),
                 flag, "nan"]) == 2
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not out_dir.exists()


# what a refused --eps-hat message names: the repeated spec or the bad part
_EPS_HAT_NAMES = {"P=1,P=2": "spec 'P' twice", "P=1,P": "part 'P'", "P=1,,P=2": "part ''",
                  "P=1,P=": "--eps-hat part 'P='", "P=1,P=x": "--eps-hat part 'P=x'",
                  "x": "--eps-hat part 'x'", "P=1,=2,P=1": "--eps-hat part '=2'"}


@pytest.mark.parametrize("flags", [
    ["--eps-hat", "0"], ["--eps-hat", "nan"], ["--scheme", "full", "--dt", "0"],
    ["--scheme", "partial", "--h-nf", "0"],
    ["--scheme", "full", "--n-step", "2", "--n-present", "1"],
    ["--eps-hat", "X=1"], ["--eps-hat", "P=1,S9=1"], ["--scheme", "full", "--time-limit", "1"],
    ["--eps-hat", "P=1,P=2"], ["--eps-hat", "P=1,P"], ["--eps-hat", "P=1,,P=2"],
    ["--eps-hat", "P=1,P="], ["--eps-hat", "P=1,P=x"], ["--eps-hat", "x"],
    ["--eps-hat", "P=1,=2,P=1"],
], ids=lambda f: "_".join(a.lstrip("-") for a in f))
def test_solve_rejects_bad_option_before_out_dir(tiny_path, tmp_path, capsys, flags):
    assert main(["solve", "--instance", tiny_path, "--out-dir", str(tmp_path / "o"),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert _EPS_HAT_NAMES.get(flags[-1], "") in err
    assert list(tmp_path.iterdir()) == [tmp_path / "tiny.json"]


def test_export_rejects_a_repeated_eps_hat_spec(sample_path, tmp_path, capsys):
    out = tmp_path / "c.mps"
    assert main(["export", "--instance", sample_path, "--method", "center",
                 "--eps-hat", "S1=1,S2=2,S1=3", "--out", str(out)]) == 2
    assert "spec 'S1' twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps_hat, part", [
    ("S1=1,S2=", "S2="), ("S1=1,S2=x", "S2=x"), ("x", "x"), ("S1=1,=2,S2=1", "=2")])
def test_export_names_a_malformed_eps_hat_part(sample_path, tmp_path, capsys, eps_hat, part):
    out = tmp_path / "c.mps"
    assert main(["export", "--instance", sample_path, "--method", "center",
                 "--eps-hat", eps_hat, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: --eps-hat part {part!r} is not ")
    assert list(tmp_path.iterdir()) == []


_NO_SCIPY_SCRIPT = """
import sys
import blendplan, blendplan.cli
from blendplan import (build_center, empty_plan, make_plans, read_instance,
                       sample_instance_path, solve, write_plan)
from blendplan.cli import main


def assert_unloaded(when, modules=("numpy", "scipy.sparse", "scipy.optimize")):
    loaded = sorted(m for m in modules if m in sys.modules)
    assert not loaded, f"loaded {when}: {loaded}"


assert_unloaded("by import blendplan")
work, tiny = sys.argv[1], sys.argv[2]
sample = sample_instance_path()
write_plan(empty_plan(read_instance(sample)), f"{work}/plan.json")
plan = ["--instance", sample, "--plan", f"{work}/plan.json"]
commands = [
    ["validate", "--instance", sample],
    ["export", "--instance", sample, "--method", "center", "--out", f"{work}/c.mps"],
    ["export", "--instance", sample, "--method", "exact-split", "--out", f"{work}/s.lp"],
    ["simulate", *plan, "--out", f"{work}/trace.json"],
    ["audit", *plan],
    ["loss", *plan],
]
for argv in commands:
    assert main(argv) == 0, argv
    assert_unloaded(f"by {argv[0]}")
# randomize_supply draws from numpy's generator; it needs numpy, not scipy
assert main(["gen", "--instance", sample, "--out", f"{work}/gen.json", "--extend", "40",
             "--seed", "1", "--jitter-volume", "0.1"]) == 0
assert_unloaded("by gen --seed", ("scipy.sparse", "scipy.optimize"))
inst = read_instance(tiny)
res = solve(build_center(inst, make_plans(inst, 1.0)))
assert res.status in ("optimal", "gap_reached"), res.status
# a solve loads HiGHS's extension alone: numpy, but neither scipy package
assert_unloaded("by solve", ("scipy.sparse", "scipy.optimize"))
assert main(["solve", "--instance", tiny, "--out-dir", f"{work}/roll", "--scheme", "partial",
             "--periods", "run", "--dt", "3", "--h-nf", "6"]) == 0
assert_unloaded("by solve --scheme partial", ("scipy.sparse", "scipy.optimize"))
from dataclasses import replace
from blendplan.solve import solve_reference
from conftest import toy_1t1s
toy = toy_1t1s()
toy = replace(toy, barges=(replace(toy.barges[0], specs={"P": 51.5}),))
assert solve_reference(build_center(toy, make_plans(toy, 1.0))).status == "optimal"
assert_unloaded("by solve_reference", ("scipy.sparse", "scipy.optimize"))
print("ok")
"""


def test_commands_that_do_not_solve_leave_scipy_unloaded(tiny_path, tmp_path):
    # a fresh interpreter: this test process has loaded scipy already
    here = os.path.dirname(os.path.abspath(__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(here, os.pardir, "src"), here])}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path), tiny_path],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_bench_run_without_instance_is_an_error_row(tmp_path, capsys):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"runs": [{"method": "center"}]}))
    out_dir = str(tmp_path / "bench")
    assert main(["bench", "--config", str(cfg_path), "--out-dir", out_dir]) == 2
    with open(os.path.join(out_dir, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["status"], r["instance"], r["method"]) for r in rows] == [("error", "", "center")]
    assert rows[0]["message"]


def test_solve_defaults_pinned():
    # the defaults `solve`, `bench` and `run_solve_config` share
    want = {
        "method": "center", "eps_hat": "1.0", "scheme": "flat", "periods": "run",
        "dt": 7, "h_nf": 90, "n_present": 1, "n_step": 1,
        "no_tighten": False,
        "mip_gap": 0.005, "time_limit": 600.0,
    }
    assert {k: (v, type(v)) for k, v in _SOLVE_DEFAULTS.items()} == \
        {k: (v, type(v)) for k, v in want.items()}


def test_export_exact_split_row_count(tiny_path, tmp_path, capsys):
    lp = str(tmp_path / "t.lp")
    main(["export", "--instance", tiny_path, "--method", "exact-split", "--out", lp])
    info = json.loads(capsys.readouterr().out)
    inst = blendplan.read_instance(tiny_path)
    ds = blendplan.derive_sets(inst)
    want = len(inst.tanks) * len(inst.specs) * len(ds.demand_days)
    assert info["bilinear"] == want


def test_bench_matrix(tiny_path, tmp_path, capsys):
    cfg = {
        "runs": [
            {"instance": tiny_path, "method": "center", "eps_hat": 1.0,
             "time_limit": 120},
            {"instance": tiny_path, "method": "mccormick", "eps_hat": 1.0,
             "time_limit": 120},
        ],
    }
    cfg_path = str(tmp_path / "bench.json")
    json.dump(cfg, open(cfg_path, "w"))
    out_dir = str(tmp_path / "bench")
    rc = main(["bench", "--config", cfg_path, "--out-dir", out_dir])
    assert rc == 0
    with open(os.path.join(out_dir, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    for method in ("center", "mccormick"):
        prof = os.path.join(out_dir, f"profile_time_{method}.csv")
        with open(prof) as fh:
            pr = list(csv.DictReader(fh))
        fracs = [float(r["fraction_finished"]) for r in pr]
        # each method's own runs all finished
        assert fracs == sorted(fracs) and fracs[-1] == 1.0
    # identical methods on the same instance give identical objective rows
    a, b = (json.load(open(os.path.join(out_dir, f"run_{i:03d}", "record.json")))
            for i in (0, 1))
    assert a["instance"] == b["instance"]


def test_bench_profile_counts_failed_runs(tiny_path, tmp_path):
    # each method's profile counts that method's runs only, failed ones
    # too: the failed center run keeps center's top fraction at 1/2
    runs = [{"instance": tiny_path, "method": "center", "time_limit": 120},
            {"instance": str(tmp_path / "missing.json"), "method": "center"},
            {"instance": tiny_path, "method": "mccormick", "time_limit": 120}]
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"runs": runs}))
    out_dir = str(tmp_path / "bench")
    assert main(["bench", "--config", str(cfg_path), "--out-dir", out_dir]) == 2
    for method, want in (("center", [0.5]), ("mccormick", [1.0])):
        with open(os.path.join(out_dir, f"profile_time_{method}.csv")) as fh:
            fracs = [float(r["fraction_finished"]) for r in csv.DictReader(fh)]
        assert fracs == want, method


def test_bench_default_matrix(tiny_path, tmp_path):
    out_dir = str(tmp_path / "matrix")
    rc = main(["bench", "--matrix", tiny_path, "--out-dir", out_dir])
    assert rc == 0
    with open(os.path.join(out_dir, "results.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4   # {center, mccormick} x {1.0, 0.25}
    assert {(r["method"], r["eps_hat"]) for r in rows} == {
        ("center", "1.0"), ("center", "0.25"),
        ("mccormick", "1.0"), ("mccormick", "0.25")}


def test_bench_parallel_matches_serial(tiny_path, tmp_path):
    runs = [{"instance": tiny_path, "method": "center", "eps_hat": e, "time_limit": 120}
            for e in (2.0, 1.0)]
    cfg_path = str(tmp_path / "cfg.json")
    json.dump({"runs": runs}, open(cfg_path, "w"))
    d1, d2 = str(tmp_path / "serial"), str(tmp_path / "par")
    main(["bench", "--config", cfg_path, "--out-dir", d1])
    main(["bench", "--config", cfg_path, "--out-dir", d2, "--workers", "2"])
    for i in range(2):
        a = json.load(open(os.path.join(d1, f"run_{i:03d}", "record.json")))
        b = json.load(open(os.path.join(d2, f"run_{i:03d}", "record.json")))
        assert a["objective"] == pytest.approx(b["objective"], abs=1e-9)
        assert a["pct_loss"] == pytest.approx(b["pct_loss"], abs=1e-9)


def test_solve_determinism(tiny_path, tmp_path):
    dirs = [str(tmp_path / f"d{i}") for i in (0, 1)]
    for d in dirs:
        main(["solve", "--instance", tiny_path, "--out-dir", d, "--time-limit", "120"])
    recs = [json.load(open(os.path.join(d, "record.json"))) for d in dirs]
    assert recs[0]["objective"] == recs[1]["objective"]
    assert recs[0]["pct_loss"] == recs[1]["pct_loss"]
    plans = [open(os.path.join(d, "plan.json")).read() for d in dirs]
    assert plans[0] == plans[1]


def test_simulate_writes_the_trace_csv_alone(tiny_path, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    blendplan.write_plan(blendplan.empty_plan(blendplan.read_instance(tiny_path)), plan)
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--instance", tiny_path, "--plan", str(plan),
                 "--csv", str(out)]) == 0
    assert capsys.readouterr().out == ""
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["day"]) for r in rows] == list(range(6))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json", "tiny.json", "trace.csv"]


def test_simulate_without_an_output_prints_the_trace(tiny_path, tmp_path, capsys):
    inst = blendplan.read_instance(tiny_path)
    plan = tmp_path / "plan.json"
    blendplan.write_plan(blendplan.empty_plan(inst), plan)
    assert main(["simulate", "--instance", tiny_path, "--plan", str(plan)]) == 0
    want = blendplan.simulate(inst, blendplan.empty_plan(inst)).to_dict()
    assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(want))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json", "tiny.json"]


def test_export_bilinear_model_to_another_suffix_writes_lp(inst_path, tmp_path, capsys):
    out = tmp_path / "m.mps"
    assert main(["export", "--instance", inst_path, "--method", "exact-split",
                 "--out", str(out)]) == 0
    cap = capsys.readouterr()
    assert cap.err == "note: bilinear model, writing LP format\n"
    assert json.loads(cap.out)["bilinear"] > 0
    lp = tmp_path / "m.lp"
    blendplan.build_exact_split(blendplan.read_instance(inst_path)).write_lp(lp)
    assert out.read_bytes() == lp.read_bytes()
    assert (tmp_path / "m.mps.tags.json").exists()


@pytest.mark.parametrize("config,err", [(None, "error: bench needs --config or --matrix\n"),
                                        ({"runs": []}, "error: bench config has no runs\n")],
                         ids=["no-runs-given", "empty-runs"])
def test_bench_without_runs_exits_2(tmp_path, capsys, config, err):
    out_dir = tmp_path / "bench"
    argv = ["bench", "--out-dir", str(out_dir)]
    if config is not None:
        cfg = tmp_path / "bench.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    assert capsys.readouterr().err == err
    assert not out_dir.exists()


@pytest.mark.parametrize("config, flags, err", [
    ({"workers": "4"}, [], 'workers: expected a whole number >= 0, got "4"'),
    ({"workers": None}, [], "workers: expected a whole number >= 0, got null"),
    ({"workers": 2.5}, [], "workers: expected a whole number >= 0, got 2.5"),
    ({"workers": -2}, [], "workers: expected a whole number >= 0, got -2"),
    ({}, ["--workers", "-3"], "--workers: expected a whole number >= 0, got -3"),
    ({"runs": 5}, [], "runs: expected an array, got 5"),
    ({"runs": [5]}, [], "runs[0]: expected a JSON object, got 5"),
    ([{"method": "center"}], [], 'top level: expected a JSON object, got [{"method": "center"}]'),
    ({"out_dir": 7}, [], "out_dir: expected a string, got 7"),
], ids=["workers-string", "workers-null", "workers-fraction", "workers-negative",
        "workers-flag-negative", "runs-number", "runs-entry-number", "top-level-array",
        "out-dir-number"])
def test_bench_refuses_a_config_of_the_wrong_shape(tiny_path, tmp_path, capsys, config, flags,
                                                   err):
    # checked before any directory is made; a run entry's own keys are
    # run_solve_config's to check
    if isinstance(config, dict):
        config = {"runs": [{"instance": tiny_path, "time_limit": 5}], **config}
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir), *flags]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out_dir.exists()


def test_bench_run_of_an_exact_method_is_an_error_row(tiny_path, tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": [{"instance": tiny_path, "method": "exact-split"}]}))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 2
    assert json.loads(capsys.readouterr().out) == {"runs": 1, "ok": 0, "out_dir": str(out_dir)}
    with open(out_dir / "results.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["method"], row["status"]) == ("exact-split", "error")
    assert row["message"] == "method 'exact-split' cannot be solved in-process"
    assert not (out_dir / "run_000").exists()


def test_bench_run_with_a_per_spec_eps_hat(tiny_path, tmp_path, capsys):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"runs": [{"instance": tiny_path, "eps_hat": {"P": 0.5},
                                         "time_limit": 120}]}))
    out_dir = tmp_path / "bench"
    assert main(["bench", "--config", str(cfg), "--out-dir", str(out_dir)]) == 0
    rec = json.loads((out_dir / "run_000" / "record.json").read_text())
    assert rec["status"] in ("optimal", "gap_reached") and rec["eps_hat"] == {"P": 0.5}
    assert (out_dir / "run_000" / "plan.json").exists()
    with open(out_dir / "results.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == rec["status"]
