"""End-to-end CLI coverage on small inputs."""

import csv
import json
import os
from dataclasses import replace

import pytest

import blendplan
import blendplan.rolling
from blendplan.cli import main
from blendplan.instance import write_instance
from conftest import small_instance, tiny_instance


@pytest.fixture
def inst_path(tmp_path):
    p = tmp_path / "inst.json"
    write_instance(small_instance(0), p)
    return str(p)


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
        return replace(res, status="time_limit", objective=None, values={})

    monkeypatch.setattr(blendplan.rolling, "solve", solve_hits_limit_without_values)
    rc = main(["solve", "--instance", tiny_path, "--out-dir", str(tmp_path / "roll"),
               "--scheme", "full", "--periods", "fixed", "--dt", "3",
               "--time-limit", "300"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: step 0: solver returned time_limit")
    assert "Traceback" not in err


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
        assert fracs == sorted(fracs) and fracs[-1] <= 1.0
    # identical methods on the same instance give identical objective rows
    a, b = (json.load(open(os.path.join(out_dir, f"run_{i:03d}", "record.json")))
            for i in (0, 1))
    assert a["instance"] == b["instance"]


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
        main(["solve", "--instance", tiny_path, "--out-dir", d, "--seed", "5",
              "--time-limit", "120"])
    recs = [json.load(open(os.path.join(d, "record.json"))) for d in dirs]
    assert recs[0]["objective"] == recs[1]["objective"]
    assert recs[0]["pct_loss"] == recs[1]["pct_loss"]
    plans = [open(os.path.join(d, "plan.json")).read() for d in dirs]
    assert plans[0] == plans[1]
