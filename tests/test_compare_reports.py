"""scripts/compare_reports.py on two temporary report directories, and the
snapshot script that writes them."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import yaml

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
SCRIPT = SCRIPTS / "compare_reports.py"


def compare(a, b):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write(directory, name, text):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(text)


def test_identical_close_and_mismatched_reports(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    report = {"verdict": "PASS", "margin": 0.25, "rows": [1.0, 2.0]}
    for d in (a, b):
        write(d, "same.json", json.dumps(report))
        write(d, "same.csv", "r,margin\n0.5,0.125\n")
    write(a, "close.json", json.dumps(report))
    write(b, "close.json", json.dumps({**report, "margin": 0.25 + 1e-13}))
    status, out, _ = compare(a, b)
    assert status == 0
    assert "same.json: identical" in out and "same.csv: identical" in out
    assert "close.json: worst rel diff 4e-13 at margin" in out

    write(b, "close.json", json.dumps({**report, "verdict": "FAIL"}))
    write(a, "extra.csv", "r\n1\n")
    status, out, _ = compare(a, b)
    assert status == 1
    assert "MISMATCH verdict: 'PASS' != 'FAIL'" in out
    assert "extra.csv: only in A" in out


def test_leaves_below_one_are_compared_relatively(tmp_path):
    # a 3e-31 volume that moves by a third of itself reads a third, not 1e-31
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "tiny.json", json.dumps({"volume": 3e-31, "zero": 0.0}))
    write(b, "tiny.json", json.dumps({"volume": 2e-31, "zero": 0.0}))
    status, out, _ = compare(a, b)
    assert status == 0
    assert "tiny.json: worst rel diff 0.333 at volume" in out
    write(b, "tiny.json", json.dumps({"volume": 3e-31, "zero": 1e-300}))
    status, out, _ = compare(a, b)
    assert "tiny.json: worst rel diff 1 at zero" in out


def test_a_row_count_change_is_one_mismatch(tmp_path):
    # a CSV sampled on another grid: one line for the row count, none per cell
    a, b = tmp_path / "a", tmp_path / "b"
    write(a, "diag.csv", "t,h\n" + "".join(f"{k},{k * k}\n" for k in range(32)))
    write(b, "diag.csv", "t,h\n" + "".join(f"{k},{k * k}\n" for k in range(40)))
    status, out, _ = compare(a, b)
    assert status == 1
    assert [line for line in out.splitlines() if "MISMATCH" in line] == [
        "  MISMATCH rows: 32 != 40"]


def test_worst_move_per_leaf_class(tmp_path):
    # list indices and CSV row numbers fold into one class each, per file and over all files
    a, b = tmp_path / "a", tmp_path / "b"
    rows = {"results": [{"lhs": 1.0, "tol": 2.0}, {"lhs": 3.0, "tol": 4.0}]}
    moved = {"results": [{"lhs": 1.0 + 1e-12, "tol": 2.0}, {"lhs": 3.0, "tol": 4.0 + 4e-10}]}
    write(a, "x.json", json.dumps(rows))
    write(b, "x.json", json.dumps(moved))
    write(a, "y.csv", "t,h\n1,2\n3,4\n")
    write(b, "y.csv", "t,h\n1,2\n3,4.000001\n")
    write(a, "z.json", json.dumps(rows))
    write(b, "z.json", json.dumps({"results": [{"lhs": 1.0 + 3e-12, "tol": 2.0},
                                               rows["results"][1]]}))
    status, out, _ = compare(a, b)
    assert status == 0
    lines = out.splitlines()
    assert "x.json: worst rel diff 1e-10 at results[1].tol" in lines
    assert "  class results[*].lhs: worst rel diff 1e-12" in lines
    assert "  class results[*].tol: worst rel diff 1e-10" in lines
    assert "  class row *.h: worst rel diff 2.5e-07" in lines
    assert "all files: class results[*].lhs: worst rel diff 3e-12 in z.json" in lines
    assert "all files: class results[*].tol: worst rel diff 1e-10 in x.json" in lines
    assert "all files: class row *.h: worst rel diff 2.5e-07 in y.csv" in lines


def test_missing_directory_is_reported_without_traceback(tmp_path):
    (tmp_path / "a").mkdir()
    status, out, err = compare(tmp_path / "a", tmp_path / "missing")
    assert status == 2
    assert "missing is not a directory" in err
    assert "Traceback" not in err


def test_run_records_compare_exit_codes_and_stderr_exactly(tmp_path):
    # the runs.json of scripts/snapshot_reports.py: ints and strings are exact leaves
    a, b = tmp_path / "a", tmp_path / "b"
    runs = {"all mini.yaml": {"exit": 0, "stderr": ""},
            "gunther collapse.yaml": {"exit": 2, "stderr": "configuration error: "
                                      "reaches t=1.91523, chart-exit; not an SCLV\n"}}
    write(a, "runs.json", json.dumps(runs))
    write(b, "runs.json", json.dumps(runs))
    status, out, _ = compare(a, b)
    assert status == 0 and "runs.json: identical" in out

    changed = json.loads(json.dumps(runs))
    changed["gunther collapse.yaml"]["exit"] = 3
    changed["gunther collapse.yaml"]["stderr"] = runs["gunther collapse.yaml"]["stderr"].replace(
        "1.91523", "1.91524")
    write(b, "runs.json", json.dumps(changed))
    status, out, _ = compare(a, b)
    assert status == 1
    assert "MISMATCH gunther collapse.yaml.exit: 2 != 3" in out
    assert "MISMATCH gunther collapse.yaml.stderr: " in out


def test_snapshot_writes_every_run_into_a_relative_out(tmp_path, monkeypatch):
    # its lfgeom runs work in the checkout, so a relative OUT must be resolved first
    spec = importlib.util.spec_from_file_location("snapshot_reports",
                                                  SCRIPTS / "snapshot_reports.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    outs = []

    def inputs(workload, directory):
        outs.append(directory)
        return [directory / f"{workload}.yaml"]

    def lfgeom(command, scenario, out, *flags):
        outs.append(out)
        return {"exit": 0, "stderr": ""}

    monkeypatch.setattr(script, "_inputs", inputs)
    monkeypatch.setattr(script, "_lfgeom", lfgeom)
    monkeypatch.chdir(tmp_path)
    assert script.main(["snap"]) == 0
    assert set(outs) == {tmp_path / "snap", tmp_path / "snap" / "inputs"}
    runs = json.loads((tmp_path / "snap" / "runs.json").read_text())
    assert "all finsler3d.yaml" in runs and "gunther reject.yaml" in runs
    assert "gunther even-conjugate-n3.yaml" in runs
    assert "all near-cone-n2.yaml" in runs and "all no-checks-n2.yaml" in runs
    assert "all sphere-ball.yaml" in runs
    for command in ("geodesic", "curvature", "jacobi", "validate-model",
                    "bg", "gunther", "bg-inf", "ball"):
        assert f"{command} mink2_gunther_weighted.yaml" in runs
    assert "all --seed 7 seed-7.yaml" in runs and "validate-model --seed 7 seed-7.yaml" in runs
    near = yaml.safe_load((tmp_path / "snap" / "inputs" / "near-cone-n2.yaml").read_text())
    assert near["name"] == "near-cone-n2" and near["sclv"]["radius"] == 0.97
    bare = yaml.safe_load((tmp_path / "snap" / "inputs" / "no-checks-n2.yaml").read_text())
    assert bare["name"] == "no-checks-n2" and "checks" not in bare
    ball = yaml.safe_load((tmp_path / "snap" / "inputs" / "sphere-ball.yaml").read_text())
    assert ball["name"] == "sphere-ball" and list(ball["checks"]) == ["ball"]
    seeded = yaml.safe_load((tmp_path / "snap" / "inputs" / "seed-7.yaml").read_text())
    assert seeded["name"] == "seed-7" and seeded["checks"]
