"""Scenario parsing and the command-line front door (exit codes, report
schema, run-to-run determinism)."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from lfgeom import cli, geodesics, jets
from lfgeom.connection import DegenerateMetricError
from lfgeom.scenario import ConfigError, ModelConfig, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINK1_ALL = """\
name: mini
model:
  name: minkowski
  n: 1
  weight: [[linear_x0, 0.4]]
sclv:
  apex: [0.0, 0.0]
  radius: 0.6
  cut: 2.0
checks:
  bg:
    N: 3.0
    pairs: [[0.5, 1.0]]
  gunther: {}
  bg_inf:
    pairs: [[0.5, 1.0]]
  ball:
    eps: 0.05
    r_grid: [0.5, 1.5]
numerics:
  oracle: true
"""


@pytest.fixture()
def mini_scenario(tmp_path):
    p = tmp_path / "mini.yaml"
    p.write_text(MINK1_ALL)
    return p


# ---------------------------------------------------------------- scenario


def test_parse_round_trip_is_lossless(mini_scenario):
    scen = load_scenario(mini_scenario)
    assert scen.to_dict() == yaml.safe_load(MINK1_ALL)
    assert scen.model.weight == [("linear_x0", 0.4)]
    assert scen.checks.requested() == ["bg", "gunther", "bg_inf", "ball"]
    assert scen.numerics.oracle and scen.numerics.quad_scale == 1.0


@pytest.mark.parametrize("mutate, path_bit", [
    (lambda d: d["model"].update(novel=1), "model.novel"),
    (lambda d: d["checks"]["bg"].update(slope=2), "checks.bg.slope"),
    (lambda d: d["numerics"].update(fast=True), "numerics.fast"),
    (lambda d: d["numerics"].update(t_scan=32), "numerics.t_scan"),
    (lambda d: d["numerics"].update(t_volume=48), "numerics.t_volume"),
    (lambda d: d.update(extra={}), "extra"),
])
def test_unknown_keys_rejected_with_path(tmp_path, mutate, path_bit):
    doc = yaml.safe_load(MINK1_ALL)
    mutate(doc)
    p = tmp_path / "bad.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=path_bit.replace(".", r"\.")):
        load_scenario(p)


def test_missing_and_malformed_fields(tmp_path):
    for text, fragment in [
        ("name: x\nmodel: {name: minkowski, n: 2}\n", "sclv"),
        ("name: x\nmodel: {n: 2}\nsclv: {apex: [0,0,0], radius: 1, cut: 1}\n",
         "name and n"),
        ("name: x\nmodel: {name: minkowski, n: 2}\n"
         "sclv: {apex: [0,0], radius: 1, cut: 1}\n", "3 components"),
        ("name: x\nmodel: {name: minkowski, n: 2}\n"
         "sclv: {apex: [0,0,0], radius: 1, cut: 1}\n"
         "checks: {bg: {pairs: [[0.5, 1]]}}\n", "N and pairs"),
        # YAML booleans are not numbers
        ("name: x\nmodel: {name: minkowski, n: 2}\n"
         "sclv: {apex: [0,0,0], radius: true, cut: 1}\n", r"sclv\.radius: expected a number"),
        ("name: x\nmodel: {name: minkowski, n: 2, params: {c: false}}\n"
         "sclv: {apex: [0,0,0], radius: 1, cut: 1}\n", r"model\.params\.c: expected a number"),
    ]:
        p = tmp_path / "frag.yaml"
        p.write_text(text)
        with pytest.raises(ConfigError, match=fragment):
            load_scenario(p)


def test_not_yaml_and_missing_file(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError, match="YAML"):
        load_scenario(p)
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "absent.yaml")


def _drop(*keys):
    def mutate(d):
        for k in keys[:-1]:
            d = d[k]
        del d[keys[-1]]
    return mutate


@pytest.mark.parametrize("mutate, message", [
    # one case per converter kind
    (lambda d: d["model"].update(n=2.5), "f.yaml.model.n: expected an integer, got 2.5"),
    (lambda d: d["numerics"].update(oracle=1),
     "f.yaml.numerics.oracle: expected true/false, got 1"),
    (lambda d: d.update(name=3), "f.yaml.name: expected a string, got 3"),
    (lambda d: d["sclv"].update(apex=0.0), "f.yaml.sclv.apex: expected a list of numbers"),
    (lambda d: d["checks"]["bg"].update(pairs=[[0.5]]),
     "f.yaml.checks.bg.pairs[0]: expected exactly two numbers"),
    (lambda d: d["model"].update(weight=[["linear_x0"]]),
     "f.yaml.model.weight[0]: expected [kind, param]"),
    (lambda d: d.update(sclv=[0.0, 1.0]), "f.yaml.sclv: expected a mapping, got list"),
    (lambda d: d["checks"].update(gunther=0), "f.yaml.checks.gunther: expected a mapping, got int"),
    # one case per required set
    (_drop("model", "name"), "f.yaml.model needs name and n"),
    (_drop("sclv", "cut"), "f.yaml.sclv needs apex, radius, and cut"),
    (_drop("checks", "bg", "N"), "f.yaml.checks.bg needs N and pairs"),
    (_drop("checks", "bg_inf", "pairs"), "f.yaml.checks.bg_inf needs pairs"),
    (_drop("checks", "ball", "r_grid"), "f.yaml.checks.ball needs eps and r_grid"),
    (_drop("name"), "f.yaml needs name, model, and sclv"),
])
def test_section_reader_names_each_fault_in_full(tmp_path, mutate, message):
    doc = yaml.safe_load(MINK1_ALL)
    mutate(doc)
    p = tmp_path / "f.yaml"
    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError) as exc:
        load_scenario(p)
    assert str(exc.value) == message


def test_empty_scenario_file(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("# nothing here\n")
    with pytest.raises(ConfigError) as exc:
        load_scenario(p)
    assert str(exc.value) == f"{p}: empty scenario file"


# --------------------------------------------------------------------- CLI


def test_bg_anchor_report(tmp_path):
    code = cli.main(["bg", "--scenario", str(SCENARIOS / "mink2_bg_anchor.yaml"),
                     "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "mink2-bg-anchor-bg.json").read_text())
    assert rep["schema"] == 1
    assert rep["verdict"] == "PASS"
    row = rep["checks"]["bg"]["results"][0]
    assert abs(row["margin"] - 0.09375) < 1e-9
    assert row["tol"] > 0  # every number carries its tolerance
    csv_text = (tmp_path / "mink2-bg-anchor-bg.csv").read_text().splitlines()
    assert csv_text[0].split(",")[:4] == ["direction", "t", "detA", "lambda"]


@pytest.mark.parametrize("scale, directions, samples", [(1.0, 32, 8 + 32), (0.5, 16, 8 + 16)])
def test_resolution_scale_scales_directions_and_nodes(mini_scenario, tmp_path, scale,
                                                      directions, samples):
    # one node count for every t-integral, scan and sweep, after the 8-sample head
    assert cli.main(["gunther", "--scenario", str(mini_scenario), "--out", str(tmp_path),
                     "--resolution-scale", str(scale)]) == 0
    scan = json.loads((tmp_path / "mini-gunther.json").read_text())["checks"]["gunther"][
        "bounds"]["scan"]
    assert (scan["directions"], scan["t_samples"]) == (directions, samples)
    rows = (tmp_path / "mini-gunther.csv").read_text().splitlines()[1:]
    assert len(rows) == directions * samples


def test_bad_hypothesis_is_config_error(tmp_path, capsys):
    doc = yaml.safe_load(MINK1_ALL)
    doc["checks"]["bg"]["N"] = 0.5
    p = tmp_path / "badN.yaml"
    p.write_text(yaml.safe_dump(doc))
    code = cli.main(["bg", "--scenario", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert "N in (n, oo)" in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [("bg", "bg"), ("bg-inf", "bg_inf")])
def test_reversed_ratio_pair_is_config_error(tmp_path, capsys, command, key):
    doc = yaml.safe_load((SCENARIOS / "mink2_bg_anchor.yaml").read_text())
    doc["checks"][key]["pairs"] = [[1.0, 0.5]]
    p = tmp_path / "reversed.yaml"
    p.write_text(yaml.safe_dump(doc))
    code = cli.main([command, "--scenario", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert "need 0 < r <= R <= 1, got (1.0, 0.5)" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,field", [("bg", "bg", "pairs"), ("bg-inf", "bg_inf", "pairs"),
                                               ("ball", "ball", "r_grid")])
def test_an_empty_check_list_is_config_error(tmp_path, capsys, command, key, field):
    # an empty pairs list would PASS with no ratio row, an empty r_grid end
    # in numpy's "zero-size array" error: each is refused, naming the list
    doc = yaml.safe_load(MINK1_ALL)
    doc["checks"][key][field] = []
    p = tmp_path / "empty-list.yaml"
    p.write_text(yaml.safe_dump(doc))
    code = cli.main([command, "--scenario", str(p), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {field} is empty: ")
    assert not list(tmp_path.glob("mini-*"))


def test_a_non_positive_resolution_scale_is_config_error(tmp_path, capsys, mini_scenario):
    code = cli.main(["all", "--scenario", str(mini_scenario), "--out", str(tmp_path),
                     "--resolution-scale", "0"])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: --resolution-scale must be positive\n"
    assert not list(tmp_path.glob("mini-*"))


def test_a_check_the_scenario_does_not_configure_is_config_error(tmp_path, capsys):
    code = cli.main(["ball", "--scenario", str(SCENARIOS / "desitter2_gunther.yaml"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ("configuration error: scenario desitter2-gunther "
                                       "does not configure the ball check\n")
    assert not list(tmp_path.glob("*.json"))


def test_falsified_override_fails(tmp_path):
    doc = yaml.safe_load(MINK1_ALL)
    doc["checks"]["bg"]["c"] = 0.3  # flat space cannot certify c > 0
    p = tmp_path / "false.yaml"
    p.write_text(yaml.safe_dump(doc))
    code = cli.main(["bg", "--scenario", str(p), "--out", str(tmp_path)])
    assert code == 1
    rep = json.loads((tmp_path / "mini-bg.json").read_text())
    assert rep["verdict"] == "FAIL"


def test_no_admissible_epsilon_aborts(tmp_path, capsys):
    doc = yaml.safe_load(MINK1_ALL)
    doc["checks"]["ball"] = {"eps": 0.5, "r_grid": [1.0e-05]}
    p = tmp_path / "abort.yaml"
    p.write_text(yaml.safe_dump(doc))
    code = cli.main(["ball", "--scenario", str(p), "--out", str(tmp_path)])
    assert code == 3
    assert "no admissible epsilon" in capsys.readouterr().err


COLLAPSE = """\
name: collapse
model:
  name: flrw
  n: 1
  params: {scale: affine, a0: 1.0, q: -0.5}
sclv:
  apex: [2.0, 0.0]
  radius: 0.5
  cut: 1.0
checks:
  gunther: {}
"""


def fresh_python(*args):
    """Run a fresh interpreter on this checkout's ``lfgeom``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [q for q in [os.environ.get("PYTHONPATH")] if q]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", ["geodesic", "curvature", "gunther"])
def test_collapsed_metric_is_a_numerical_abort(tmp_path, command):
    # a(x0) = 1 - x0/2 vanishes at the apex: g_v is degenerate there
    p = tmp_path / "collapse.yaml"
    p.write_text(COLLAPSE)
    run = fresh_python("-m", "lfgeom.cli", command, "--scenario", str(p), "--out", str(tmp_path))
    assert run.returncode == 3
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("numerical abort:")


def test_degenerate_base_point_is_named_by_every_subcommand(tmp_path, capsys):
    # the flows' base-point checks run before any transported frame is built
    p = tmp_path / "collapse.yaml"
    p.write_text(COLLAPSE)
    for command in ("geodesic", "curvature", "jacobi", "gunther", "all"):
        assert cli.main([command, "--scenario", str(p), "--out", str(tmp_path)]) == 3, command
        assert capsys.readouterr().err == ("numerical abort: metric conditioning margin "
                                           "-1e-09 <= 0 at the base point\n"), command


def test_jet_domain_error_is_a_numerical_abort(tmp_path):
    # the conformal factor divides by R^2 + |x|^2 = 1e-14 at the apex, below jets.DIV_TOL
    doc = {"name": "tiny-sphere",
           "model": {"name": "einstein_static", "n": 2, "params": {"radius": 1.0e-7}},
           "sclv": {"apex": [0.0, 0.0, 0.0], "radius": 0.1, "cut": 1.0},
           "checks": {"gunther": {}}}
    p = tmp_path / "tiny-sphere.yaml"
    p.write_text(yaml.safe_dump(doc))
    run = fresh_python("-m", "lfgeom.cli", "gunther", "--scenario", str(p), "--out", str(tmp_path))
    assert run.returncode == 3
    assert "Traceback" not in run.stderr
    assert run.stderr == "numerical abort: division by jet with near-zero constant term\n"


def test_oracle_near_the_cone_runs_inside_the_patch(tmp_path):
    # a valid SCLV whose patch reaches radius 0.97 of the light cone: the
    # oracle's rays all lie in the patch, so it reports instead of aborting
    doc = yaml.safe_load((SCENARIOS / "mink2_gunther_weighted.yaml").read_text())
    doc["name"] = "near-cone-n2"
    doc["sclv"]["radius"] = 0.97
    p = tmp_path / "near-cone-n2.yaml"
    p.write_text(yaml.safe_dump(doc))
    run = fresh_python("-m", "lfgeom.cli", "all", "--scenario", str(p), "--out", str(tmp_path))
    assert run.returncode in (0, 1), run.stderr
    assert "RuntimeWarning" not in run.stderr and "Traceback" not in run.stderr
    oracle = json.loads((tmp_path / "near-cone-n2-all.json").read_text())["volume_oracle"]
    assert np.isfinite(oracle["coordinate"]) and np.isfinite(oracle["coordinate_error"])


def test_all_without_checks_reads_the_center_path_alone(tmp_path):
    # no checks: `all` runs the center Jacobi path by itself, and its blocks and
    # CSV are those of the single-block subcommands
    doc = yaml.safe_load((SCENARIOS / "mink2_gunther_weighted.yaml").read_text())
    doc["name"] = "bare"
    del doc["checks"]
    p = tmp_path / "bare.yaml"
    p.write_text(yaml.safe_dump(doc))
    reps = {}
    for command in ("all", "geodesic", "curvature", "jacobi"):
        assert cli.main([command, "--scenario", str(p), "--out", str(tmp_path)]) == 0, command
        reps[command] = json.loads((tmp_path / f"bare-{command}.json").read_text())
    full = reps["all"]
    assert "checks" not in full and "volume_oracle" not in full
    assert full["curvature"] == reps["curvature"]["curvature"]
    assert full["jacobi"] == reps["jacobi"]["jacobi"]
    assert ((tmp_path / "bare-all.csv").read_bytes()
            == (tmp_path / "bare-jacobi.csv").read_bytes())
    geo, ref = full["geodesic"], reps["geodesic"]["geodesic"]
    assert [geo[k] for k in ("verdict", "t_end", "status")] == \
        [ref[k] for k in ("verdict", "t_end", "status")]
    assert abs(geo["max_L_drift"] - ref["max_L_drift"]) <= 1e-8


def test_oracle_skips_above_two_spatial_dimensions(tmp_path):
    doc = {"name": "mink3", "model": {"name": "minkowski", "n": 3},
           "sclv": {"apex": [0.0, 0.0, 0.0, 0.0], "radius": 0.5, "cut": 1.0},
           "checks": {"gunther": {}}, "numerics": {"quad_scale": 0.5, "oracle": True}}
    p = tmp_path / "mink3.yaml"
    p.write_text(yaml.safe_dump(doc))
    assert cli.main(["all", "--scenario", str(p), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "mink3-all.json").read_text())
    assert rep["volume_oracle"] == {"verdict": "SKIPPED", "reason": "oracle covers n <= 2"}
    assert rep["verdict"] == "PASS"


def test_ball_bound_overflow_is_noted_not_warned(tmp_path):
    # every length of the flat anchor times 1e-8: e^{C0 r} overflows at r = 9e-9
    doc = yaml.safe_load((SCENARIOS / "mink2_bg_anchor.yaml").read_text())
    doc["sclv"]["cut"] = 1e-8
    doc["checks"]["ball"] = {"eps": 5e-10, "r_grid": [3e-9, 6e-9, 9e-9]}
    p = tmp_path / "tiny.yaml"
    p.write_text(yaml.safe_dump(doc))
    run = fresh_python("-m", "lfgeom.cli", "ball", "--scenario", str(p), "--out", str(tmp_path))
    assert run.returncode == 0 and run.stderr == ""
    ball = json.loads((tmp_path / "mink2-bg-anchor-ball.json").read_text())["checks"]["ball"]
    assert [row["rhs"] for row in ball["results"]][-1] == np.inf
    assert ball["notes"] == ["growth bound overflows to inf at r = 9e-09: "
                             "those rows pass vacuously"]


@pytest.fixture()
def flow_breaks_past_half(monkeypatch):
    """Every fused flow's rhs fails once a point reaches x0 > 0.5."""
    real = geodesics.eval_connection

    def breaking(m, x, v, **kw):
        if np.max(np.asarray(x)[..., 0]) > 0.5:
            raise DegenerateMetricError("metric collapsed past x0 = 0.5")
        return real(m, x, v, **kw)

    monkeypatch.setattr(geodesics, "eval_connection", breaking)


def test_flow_breakdown_raises(flow_breaks_past_half):
    scen = load_scenario(SCENARIOS / "mink2_bg_anchor.yaml")
    m, sclv = scen.model.build(), scen.sclv.build()
    dirs = np.array([[1.0, 0.0, 0.0], [np.sqrt(1.01), 0.1, 0.0]])
    with pytest.raises(RuntimeError, match="flow integration failed at t=0.49"):
        geodesics.radial_flow(m, sclv.apex, dirs, sclv.cut)


@pytest.mark.parametrize("command", ["geodesic", "gunther", "jacobi"])
def test_flow_breakdown_is_a_numerical_abort(tmp_path, capsys, flow_breaks_past_half, command):
    code = cli.main([command, "--scenario", str(SCENARIOS / "mink2_bg_anchor.yaml"),
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numerical abort: flow integration failed at t=")
    assert "Traceback" not in err


def test_singular_solve_is_a_numerical_abort(tmp_path, capsys, monkeypatch):
    # numpy.linalg.LinAlgError is a ValueError, but it is no configuration error
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    code = cli.main(["gunther", "--scenario", str(SCENARIOS / "mink2_bg_anchor.yaml"),
                     "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "numerical abort: Singular matrix\n"
    assert "Traceback" not in err


SCIPY_MODULES = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
# run first in a fresh interpreter: from then on any import of SciPy raises
NO_SCIPY = """\
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name}: a run needs no SciPy")
sys.meta_path.insert(0, NoScipy())
"""


def without_scipy(code):
    return fresh_python("-c", NO_SCIPY + code + f"\n{SCIPY_MODULES}")


def test_cli_import_loads_no_scipy():
    # the import that setup_s times loads the standard library, numpy (with the
    # Cython runtime its extensions register), yaml and lfgeom, and nothing else
    run = without_scipy("before = set(sys.modules)\nimport lfgeom.cli\n"
                        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}"
                        " - sys.stdlib_module_names))")
    assert run.returncode == 0, run.stderr
    loaded, scipy_modules = run.stdout.splitlines()
    loaded = set(loaded.split())
    assert scipy_modules == "[]"
    assert {"lfgeom", "numpy", "yaml"} <= loaded
    assert {m for m in loaded - {"lfgeom", "numpy", "yaml", "cython_runtime"}
            if not m.startswith("_cython_")} == set()


@pytest.mark.parametrize("scenario", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))
def test_all_on_a_bundled_scenario_loads_no_scipy(tmp_path, scenario):
    argv = ["all", "--scenario", str(SCENARIOS / f"{scenario}.yaml"), "--out", str(tmp_path)]
    code = 1 if scenario == "boosted_sphere_gunther_fail" else 0
    run = without_scipy(f"from lfgeom import cli\nassert cli.main({argv!r}) == {code}")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_dip_refinement_loads_no_scipy(tmp_path):
    # det A only touches zero on this fan, so its exit is found by the bounded minimizer
    even = tmp_path / "even-conjugate-n3.yaml"
    even.write_text(yaml.safe_dump(EVEN_CONJUGATE, sort_keys=False))
    argv = ["gunther", "--scenario", str(even), "--out", str(tmp_path)]
    run = without_scipy(f"from lfgeom import cli\nassert cli.main({argv!r}) == 2")
    assert run.returncode == 0, run.stderr
    assert "direction 80" in run.stderr and "t=3.5523" in run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def test_curvature_route_jacobi_loads_no_scipy():
    run = without_scipy("import numpy as np\n"
                        "from lfgeom.jacobi import jacobi_curvature\n"
                        "from lfgeom.models import model_library\n"
                        "m = model_library('minkowski', n=2)\n"
                        "s = jacobi_curvature(m, np.zeros(3), np.array([1.0, 0.0, 0.0]), 2.0)"
                        ".sample([2.0])\n"
                        "assert np.allclose(s.A[0], 2.0 * np.eye(2), atol=1e-8)")
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


def loaded_numpy_random_or_polynomial(code):
    """The numpy.random / numpy.polynomial modules that code loads in a fresh
    interpreter beyond those `import numpy` loads itself (none on numpy 2)."""
    run = fresh_python("-c", "import sys, numpy\nbase = set(sys.modules)\n" + code +
                       "\nprint(sorted(m for m in set(sys.modules) - base"
                       " if m.startswith(('numpy.random', 'numpy.polynomial'))))")
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ["all", "gunther", "validate-model"])
def test_a_run_loads_neither_numpy_random_nor_polynomial(tmp_path, command):
    # the validate-model draw and the Gauss-Legendre rules are computed in house
    if command == "gunther":
        scenario, code = _reject_inputs(tmp_path / "inputs")[1], 2
    else:
        scenario, code = SCENARIOS / "flrw1_cosh_all.yaml", 0
    argv = [command, "--scenario", str(scenario), "--out", str(tmp_path)]
    assert loaded_numpy_random_or_polynomial(
        f"from lfgeom import cli\nassert cli.main({argv!r}) == {code}") == "[]"


def test_cli_import_time_list_holds_neither_numpy_random_nor_polynomial():
    base = fresh_python("-X", "importtime", "-c", "import numpy")
    run = fresh_python("-X", "importtime", "-c", "import lfgeom.cli")
    assert base.returncode == run.returncode == 0, run.stderr

    def modules(proc):
        return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:") and "cumulative" not in line}

    assert "lfgeom.cli" in modules(run)
    assert not {m for m in modules(run) - modules(base)
                if m.startswith(("numpy.random", "numpy.polynomial"))}


def test_missing_scenario_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LFGEOM_SCENARIO", raising=False)
    assert cli.main(["bg", "--out", str(tmp_path)]) == 2
    monkeypatch.setenv("LFGEOM_SCENARIO", str(SCENARIOS / "mink2_bg_anchor.yaml"))
    code = cli.main(["validate-model", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "mink2-bg-anchor-validate-model.json").read_text())
    assert rep["validate_model"]["verdict"] == "PASS"


def test_unparsable_env_default_names_its_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LFGEOM_RESOLUTION_SCALE", "abc")
    code = cli.main(["all", "--scenario", str(SCENARIOS / "mink2_bg_anchor.yaml"),
                     "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: LFGEOM_RESOLUTION_SCALE: cannot parse 'abc'\n")


def test_validate_model_quartic(tmp_path):
    doc = {"name": "quartic-check",
           "model": {"name": "quartic_finsler", "n": 2,
                     "params": {"eps": 0.05}},
           "sclv": {"apex": [0.0, 0.0, 0.0], "radius": 0.4, "cut": 1.0}}
    p = tmp_path / "quartic.yaml"
    p.write_text(yaml.safe_dump(doc))
    code = cli.main(["validate-model", "--scenario", str(p),
                     "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "quartic-check-validate-model.json").read_text())
    body = rep["validate_model"]
    assert body["verdict"] == "PASS"
    assert body["signature"]["ok"] and body["signature"]["min_eig_margin"] > 1e-3
    assert body["homogeneity"]["L_deg2_rel"] < 1e-9


def _box(cols):
    lo = np.concatenate([np.full(cols - 1, -0.25), [0.5]])
    hi = np.concatenate([np.full(cols - 1, 0.25), [2.0]])
    return lo, hi


def test_validate_draws_are_numpys_generator_bit_for_bit():
    # the d + n + 1 columns of n = 1, 2, 3 in turn; seeds past 2**32 take several entropy
    # words, and past 2**128 more words than SeedSequence's pool of four
    seeds = [*range(996), 2**32 + 5, 2**64 + 1, 2**70 + 3, 2**160 + 7]
    rows = 2 * cli.VALIDATE_SAMPLES
    for seed in seeds:
        lo, hi = _box((4, 6, 8)[seed % 3])
        ours = list(cli._uniform_rounds(seed, lo, hi, rows, 2))
        rng = np.random.default_rng(seed)
        assert len(ours) == 2
        for draw in ours:   # two consecutive draws of one generator
            assert np.array_equal(draw, rng.uniform(lo, hi, size=(rows, len(lo)))), seed


@pytest.mark.parametrize("command", ["validate-model", "all"])
def test_negative_seed_is_a_configuration_error(tmp_path, capsys, command):
    code = cli.main([command, "--scenario", str(SCENARIOS / "mink2_bg_anchor.yaml"),
                     "--out", str(tmp_path), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "configuration error: expected non-negative integer\n"


@pytest.mark.parametrize("command", ["validate-model", "all"])
def test_a_box_without_timelike_velocities_ends_the_draw(tmp_path, capsys, command):
    # a = 1e6: a sampled velocity is timelike only for |u| < 1e-6, so no round
    # ever fills the sample; the draw stops after VALIDATE_ROUNDS rounds
    doc = {"name": "huge-scale",
           "model": {"name": "flrw", "n": 2,
                     "params": {"scale": "affine", "a0": 1.0e6, "q": 0.0}},
           "sclv": {"apex": [0.0, 0.0, 0.0], "radius": 0.3, "cut": 1.0},
           "checks": {"gunther": {}}}
    p = tmp_path / "huge-scale.yaml"
    p.write_text(yaml.safe_dump(doc))
    assert cli.main([command, "--scenario", str(p), "--out", str(tmp_path)]) == 2
    drawn = cli.VALIDATE_ROUNDS * 2 * cli.VALIDATE_SAMPLES
    assert capsys.readouterr().err == (
        f"configuration error: validate-model: 0 of {drawn} sampled velocities are "
        f"future-timelike, fewer than the {cli.VALIDATE_SAMPLES} needed; the sampling "
        "box holds almost no future-timelike velocity\n")
    assert not list(tmp_path.glob("*.json"))


def test_jacobi_csv_columns(mini_scenario, tmp_path):
    code = cli.main(["jacobi", "--scenario", str(mini_scenario),
                     "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "mini-jacobi.csv").read_text().splitlines()
    assert lines[0] == "t,detA,lambda,h,f"
    first = [float(x) for x in lines[1].split(",")]
    # flat, one spatial dimension: detA = t, f = 1
    assert abs(first[1] - first[0]) < 1e-9
    assert abs(first[4] - 1.0) < 1e-9


def test_geodesic_and_curvature_reports(mini_scenario, tmp_path):
    assert cli.main(["geodesic", "--scenario", str(mini_scenario),
                     "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "mini-geodesic.json").read_text())
    assert rep["geodesic"]["max_L_drift"] < 1e-9
    assert cli.main(["curvature", "--scenario", str(mini_scenario),
                     "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "mini-curvature.csv").read_text().splitlines()
    assert lines[0].startswith("t,ric,ric_inf,ric_N")


def test_all_is_deterministic_across_runs(mini_scenario, tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["all", "--scenario", str(mini_scenario), "--out",
                     str(out1)]) == 0
    assert cli.main(["all", "--scenario", str(mini_scenario), "--out",
                     str(out2)]) == 0
    for name in ("mini-all.json", "mini-all.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep = json.loads((out1 / "mini-all.json").read_text())
    assert set(rep["checks"]) == {"bg", "gunther", "bg_inf", "ball"}
    assert rep["volume_oracle"]["verdict"] == "PASS"
    assert rep["volume_oracle"]["rel_diff"] < 1e-4


def test_all_records_each_jet_program_once(mini_scenario, tmp_path, monkeypatch):
    # every stage of a run shares the scenario's model and its programs
    traces = []
    record = jets.record

    def counting(fn, space, active, sample):
        traces.append((space.dim, space.order))
        return record(fn, space, active, sample)

    monkeypatch.setattr(jets, "record", counting)
    assert cli.main(["all", "--scenario", str(mini_scenario), "--out", str(tmp_path)]) == 0
    assert sorted(traces) == [(2, 2), (4, 3), (4, 4), (4, 5)]


def _reject_inputs(directory):
    """The two seed-0 ``reject`` inputs of ``bench/inputs.py``, written into directory."""
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", Path(__file__).resolve().parents[1] / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.write("reject", 0, directory)


# an einstein_static n = 3 fan cut past its first conjugate point, where det A
# only touches zero; its patch center reaches a conjugate point too, later
EVEN_CONJUGATE = {
    "name": "even-conjugate-n3",
    "model": {"name": "einstein_static", "n": 3, "params": {"radius": 1.0}},
    "sclv": {"apex": [0.0, 0.49918, 0.0, 0.0], "radius": 0.05, "cut": 4.5,
             "center": [0.0, 0.375, 0.0]},
    "checks": {"gunther": {}},
    "numerics": {"quad_scale": 0.5},
}


def test_all_rejects_a_non_sclv_exactly_as_gunther(tmp_path, capsys):
    # the patch center is one more row of the SCLV fan, so a centre exit is
    # one more fan exit and both commands name the fan's earliest one
    even = tmp_path / "even-conjugate-n3.yaml"
    even.write_text(yaml.safe_dump(EVEN_CONJUGATE))
    for path in [*_reject_inputs(tmp_path / "inputs"), even]:
        errs = []
        for command in ("gunther", "all"):
            assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1], path.name
        assert errs[0].endswith("; not an SCLV\n"), path.name


def test_fan_runs_record_no_order_3_connection(tmp_path, monkeypatch):
    # frames and Jacobi fields are transported with the order-4 N; with no
    # coordinate oracle and no geodesic-only flow, nothing records order 3
    built, real_build = [], ModelConfig.build

    def build(self):
        built.append(real_build(self))
        return built[-1]

    monkeypatch.setattr(ModelConfig, "build", build)
    fan = {("fundamental_tensor", 2), ("connection", 4)}
    curvature = fan | {("connection", 5)}
    collapse, conjugate = _reject_inputs(tmp_path / "inputs")
    # the collapse and the conjugate point both stop the fan flow, before any scalar scan
    runs = [("all", SCENARIOS / "desitter2_gunther.yaml", 0, curvature),
            ("gunther", collapse, 2, fan), ("gunther", conjugate, 2, fan)]
    for command, path, code, programs in runs:
        built.clear()
        assert cli.main([command, "--scenario", str(path), "--out", str(tmp_path)]) == code
        assert {key for m in built for key in m._programs} == programs, path.name


def test_all_integrates_the_center_geodesic_once(tmp_path, monkeypatch):
    # wrap radial_flow wherever a loaded lfgeom module holds it, as the bench tracer does
    real, calls = geodesics.radial_flow, []

    def counting(m, x0, d, *args, **kw):
        calls.append((len(d), kw.get("frames") is not None))
        return real(m, x0, d, *args, **kw)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "lfgeom" and getattr(mod, "radial_flow", None) is real:
            monkeypatch.setattr(mod, "radial_flow", counting)
    scenario = str(SCENARIOS / "mink2_gunther_weighted.yaml")
    assert cli.main(["all", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "mink2-gunther-weighted-all.json").read_text())
    q = rep["checks"]["gunther"]["quadrature"]["directions"]
    # one frame-carrying fan flow, the patch center as its row Q, and no B = 1 flow
    assert [c for c in calls if c[1]] == [(q + 1, True)]
    assert all(b > 1 for b, _ in calls)
    calls.clear()
    assert cli.main(["geodesic", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    assert calls == [(1, False)]    # the geodesic subcommand keeps its order-3 flow
    geo = json.loads((tmp_path / "mink2-gunther-weighted-geodesic.json").read_text())["geodesic"]
    for key in ("verdict", "t_end", "status"):
        assert rep["geodesic"][key] == geo[key], key
    assert abs(rep["geodesic"]["max_L_drift"] - geo["max_L_drift"]) <= 1e-8


def test_library_scenarios_parse():
    for path in sorted(SCENARIOS.glob("*.yaml")):
        scen = load_scenario(path)
        assert scen.name
        assert scen.model.build().n == scen.model.n


def test_run_scenarios_reads_each_scenario_own_report(tmp_path, monkeypatch, capsys):
    # the first scenario aborts and writes no report; the second passes
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "run_scenarios", Path(__file__).resolve().parents[1] / "scripts" / "run_scenarios.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "scenarios").mkdir()
    (tmp_path / "scenarios" / "a_collapse.yaml").write_text(COLLAPSE)
    (tmp_path / "scenarios" / "b_mini.yaml").write_text(MINK1_ALL)
    monkeypatch.setattr(script, "ROOT", tmp_path)
    assert script.main(["--out", str(tmp_path / "reports")]) == 1
    out, err = capsys.readouterr()
    assert "a_collapse  (exit 3, no report)" in out
    assert "mini  (exit 0)\n  overall: PASS" in out
    assert "unexpected outcomes: a_collapse" in err
