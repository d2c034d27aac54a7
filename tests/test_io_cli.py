import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env
from oracles import load_mesh
from fsichannel import cli
from fsichannel.cli import (
    DEFAULTS,
    EXIT_CHECKS_FAILED,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_INTERNAL,
    SCENARIOS,
    ConfigError,
    compare,
    describe,
    main,
    resolve_config,
    run,
)
from fsichannel.io import (
    save_mesh,
    vertex_values,
    write_csv,
    write_json,
    write_vtk,
)
from fsichannel.fluid import ConvergenceError, fluid_spaces
from fsichannel.fsi import MeshTangledError, OuterDivergenceError
from fsichannel.geomap import EllipticityError, TangledMeshError
from fsichannel.linsolve import SingularSystemError, SolverError
from fsichannel.mesh import GeometryError, MeshError
from fsichannel.sensitivity import TaylorReport
from fsichannel.spaces import FEFunction


FAST = {"target_edge_length": 0.18, "tol": 1e-9}


def test_describe_every_scenario():
    assert SCENARIOS  # registry populated by import
    for name, info in SCENARIOS.items():
        text = describe(name)
        assert name in text
        for key in info["keys"]:
            assert key in text
        for art in info["artifacts"]:
            assert art in text
    with pytest.raises(ConfigError):
        describe("nonexistent")


class _Reads(dict):
    """A resolved config that records the keys read from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_scenarios_read_their_declared_keys_and_pass(tmp_path):
    """``describe`` lists exactly the keys each runner reads, and every
    scenario, the polynomial manufactured solution included, passes its
    own checks on a small problem."""
    small = {"target_edge_length": 0.2, "mms_levels": 2, "g_sweep": [0.05],
             "h_list": [1e-2, 3e-3, 1e-3]}
    cases = [(name, {}) for name in SCENARIOS] + [("mms", {"mms_kind": "polynomial"})]
    wrong = []
    for name, extra in cases:
        cfg = _Reads(resolve_config({**small, **extra}))
        checks, ok = SCENARIOS[name]["runner"](cfg, str(tmp_path), 0)
        if cfg.read != set(SCENARIOS[name]["keys"]):
            wrong.append((name, "reads", cfg.read ^ set(SCENARIOS[name]["keys"])))
        if not ok:
            wrong.append((name, extra, checks))
    assert not wrong


def test_scenario_keys_are_known_config_keys():
    for info in SCENARIOS.values():
        for key in info["keys"]:
            assert key in DEFAULTS
    # and the converse: every config key is read by some scenario
    read = set().union(*(info["keys"] for info in SCENARIOS.values()))
    assert read == set(DEFAULTS)


def test_resolve_config_rejects_unknown_and_invalid():
    with pytest.raises(ConfigError):
        resolve_config({"not_a_key": 1})
    with pytest.raises(ConfigError):
        resolve_config({"relaxation": 1.5})
    with pytest.raises(ConfigError):
        resolve_config({"nu": -1.0})
    # study and sweep settings no run can use
    for bad in ({"mms_levels": 0}, {"mms_levels": 1}, {"h_list": [1e-2, 1e-3]},
                {"h_list": [1e-2, 0.0, 1e-3]}, {"h_list": [1e-2, -3e-3, 1e-3]},
                {"g_sweep": []}):
        with pytest.raises(ConfigError):
            resolve_config(bad)
    cfg = resolve_config({"nu": 2.0})
    assert cfg["nu"] == 2.0
    assert cfg["mu"] == DEFAULTS["mu"]


def test_resolve_config_converts_to_the_type_of_the_default():
    cfg = resolve_config({"nu": 2, "h_list": [1, 0.5, 0.25],
                          "obstacle_outer": [1, 0.3, 1.4, 0.7],
                          "warm_start": False})
    assert type(cfg["nu"]) is float and cfg["nu"] == 2.0
    assert cfg["h_list"] == [1.0, 0.5, 0.25]
    assert all(type(h) is float for h in cfg["h_list"])
    assert cfg["obstacle_outer"] == (1.0, 0.3, 1.4, 0.7)
    assert cfg["warm_start"] is False
    for bad in ({"nu": True}, {"max_iter": 2.0}, {"mms_kind": 1},
                {"obstacle_inner": [1.1, 0.4, 1.3]}, {"h_list": [1e-2, "a", 1e-3]}):
        with pytest.raises(ConfigError):
            resolve_config(bad)
    # null rectangles: the straight channel
    straight = resolve_config({"obstacle_outer": None, "obstacle_inner": None})
    assert cli.geometry_from_config(straight).obstacle_outer is None


def test_mesh_scenario_writes_artifacts(tmp_path):
    out = str(tmp_path / "m")
    code = run("mesh", FAST, out)
    assert code == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    assert summary["pass"] is True
    assert summary["scenario"] == "mesh"
    for art in SCENARIOS["mesh"]["artifacts"]:
        assert os.path.exists(os.path.join(out, art))
        if art != "summary.json":  # the summary holds the other hashes
            assert art in summary["artifacts"]


def test_taylor_summary_counts_dropped_h(tmp_path, monkeypatch):
    report = TaylorReport([3e-3, 1e-3, 3e-4], [9e-6, 1e-6, 9e-8],
                          [9e-6, 1e-6, 9e-8], [9e-6, 1e-6, 9e-8],
                          slope_u=2.0, slope_w=2.0, slope_p=2.0, dropped=[1e-2])
    monkeypatch.setattr(cli, "taylor_test", lambda *args, **kwargs: report)
    out = str(tmp_path / "t")
    assert run("taylor-test", FAST, out) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        checks = json.load(fh)["checks"]
    assert checks["n_valid_h"] == 3
    assert checks["n_dropped"] == 1
    # the dropped h gets no row of the remainder table
    with open(os.path.join(out, "report_taylor.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "h,R_u,R_w,R_p"
    assert len(lines) == 4


def test_fsi_summary_counts_fluid_steps(tmp_path):
    out = str(tmp_path / "f")
    assert run("solve-fsi", FAST, out) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        checks = json.load(fh)["checks"]
    with open(os.path.join(out, "report_fsi.csv")) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index("fluid_iters")
    steps = [int(line.split(",")[col]) for line in lines[1:]]
    assert len(steps) == checks["outer_iterations"]
    assert checks["fluid_steps"] == sum(steps)


def test_cli_exit_codes(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"relaxation": 2.0}))
    assert main(["solve-fsi", "--config", str(cfg),
                 "--out", str(tmp_path / "a")]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"bogus": 1}))
    assert main(["mesh", "--config", str(cfg),
                 "--out", str(tmp_path / "b")]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"mms_levels": 1}))
    assert main(["mms", "--config", str(cfg),
                 "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    assert not (tmp_path / "c").exists()  # rejected before the study ran
    # values of the wrong type, and a config that is not a JSON object
    for scenario, bad in (("mesh", {"obstacle_outer": 5}),
                          ("taylor-test", {"h_list": 5}),
                          ("solve-fsi", {"tol": None}),
                          ("probes", {"g_sweep": 5}),
                          ("mesh", [1]),
                          ("solve-fsi", {"warm_start": "no"}),
                          ("mesh", {"mesh_level": 1.5}),
                          # non-finite numbers, which json reads from NaN
                          # and Infinity, in a value, a list and a rectangle
                          ("solve-ns", {"tol": float("nan")}),
                          ("solve-ns", {"nu": float("inf")}),
                          ("taylor-test", {"h_list": [1e-2, float("-inf"), 1e-3]}),
                          ("mesh", {"obstacle_inner": [1.1, 0.4, float("nan"), 0.6]}),
                          ("solve-ns", {"max_iter": 0}),
                          # Taylor inputs that give no slope: zero remainders,
                          # and remainders at a single step
                          ("taylor-test", {"dg_magnitude": 0}),
                          ("taylor-test", {"h_list": [1e-2, 1e-2, 1e-2]})):
        cfg.write_text(json.dumps(bad))
        assert main([scenario, "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == EXIT_CONFIG, bad
    assert not (tmp_path / "d").exists()
    assert main([]) == EXIT_CONFIG
    # paths the user gives: a missing config file, a missing compare
    # directory, and compare directories that hold a subdirectory
    assert main(["mesh", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "e")]) == EXIT_CONFIG
    assert main(["compare", str(tmp_path / "missing"), str(tmp_path)]) == EXIT_CONFIG
    for side in ("x", "y"):
        (tmp_path / side / "p1").mkdir(parents=True)
    assert main(["compare", str(tmp_path / "x"), str(tmp_path / "y")]) == EXIT_CONFIG


def test_summary_hashes_only_the_scenarios_artifacts(tmp_path):
    # a second scenario run into the same directory lists its own files,
    # not the first one's, and writes every file it declares
    out = str(tmp_path)
    assert run("mesh", FAST, out) == 0
    assert run("solve-ns", FAST, out) == 0
    with open(os.path.join(out, "summary.json")) as fh:
        summary = json.load(fh)
    declared = SCENARIOS["solve-ns"]["artifacts"]
    assert sorted(summary["artifacts"]) == sorted(set(declared) - {"summary.json"})
    assert all(os.path.exists(os.path.join(out, a)) for a in declared)
    assert os.path.exists(os.path.join(out, "mesh.vtk"))


@pytest.mark.parametrize("failure, code", [
    (SolverError("stub"), EXIT_DIVERGED),
    (SingularSystemError("stub"), EXIT_DIVERGED),
    (ConvergenceError("stub"), EXIT_DIVERGED),
    (OuterDivergenceError("stub"), EXIT_DIVERGED),
    (MeshTangledError("stub"), EXIT_DIVERGED),
    (TangledMeshError(0, -1.0), EXIT_DIVERGED),
    (EllipticityError("stub"), EXIT_DIVERGED),
    (ConfigError("stub"), EXIT_CONFIG),
    (GeometryError("stub"), EXIT_CONFIG),
    (MeshError("stub"), EXIT_CONFIG),
    (ValueError("stub"), EXIT_CONFIG),
    (RuntimeError("stub"), EXIT_INTERNAL),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_cli_exit_code_per_failure_type(tmp_path, monkeypatch, failure, code):
    """Every solver failure exits 3 and every bad input 2, whatever the
    scenario raising it."""
    def runner(cfg, out, seed):
        raise failure

    monkeypatch.setitem(SCENARIOS["mesh"], "runner", runner)
    assert main(["mesh", "--out", str(tmp_path)]) == code


def test_compare_identical_and_differing(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("mesh", FAST, a) == 0
    assert run("mesh", FAST, b) == 0
    diffs, ok = compare(a, b)
    assert ok
    assert all(v == 0.0 for _, _, v in diffs)
    # altering one numeric CSV value must be caught at tol 0
    csvs = [n for n, k, _ in diffs if n.endswith(".csv")]
    if csvs:
        path = os.path.join(b, csvs[0])
        text = open(path).read()
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) + 1.0)
        lines[1] = ",".join(cells)
        open(path, "w").write("\n".join(lines) + "\n")
        _, ok2 = compare(a, b)
        assert not ok2
    # VTK: float blocks compare normwise, cells exactly
    a_vtk, b_vtk = os.path.join(a, "mesh.vtk"), os.path.join(b, "mesh.vtk")
    text = open(a_vtk).read()
    lines = text.splitlines()
    points = lines.index(next(l for l in lines if l.startswith("POINTS"))) + 1
    cells = lines.index(next(l for l in lines if l.startswith("CELLS"))) + 1

    def vtk_diff(edit):
        """compare() rows and verdicts at tol 1e-12 and inf for mesh.vtk
        with one edited line."""
        changed = list(lines)
        edit(changed)
        open(b_vtk, "w").write("\n".join(changed) + "\n")
        rows, ok = compare(a, b, tol=1e-12)
        _, ok_inf = compare(a, b, tol=float("inf"))
        return [r for r in rows if r[0].startswith("mesh.vtk")], ok, ok_inf

    def nudge_coordinate(ls):
        x, y, z = ls[points + 1].split()
        ls[points + 1] = f"{float(x) * (1 + 1e-14)!r} {y} {z}"

    rows, ok, _ = vtk_diff(nudge_coordinate)
    assert ok and 0.0 < max(v for _, _, v in rows) <= 1e-12

    def raise_zero(ls):
        x, y, _ = ls[points].split()
        ls[points] = f"{x} {y} 1e-17"

    rows, ok, _ = vtk_diff(raise_zero)
    assert ok and 0.0 < max(v for _, _, v in rows)

    def move_cell(ls):
        n, i, j, k = ls[cells].split()
        ls[cells] = f"{n} {j} {i} {k}"

    rows, ok, ok_inf = vtk_diff(move_cell)
    assert not ok and not ok_inf
    assert any(kind == "structure" for _, kind, _ in rows)
    open(b_vtk, "w").write(text)

    # summary.json: numbers normwise, the artifact hashes skipped
    b_summary = os.path.join(b, "summary.json")
    with open(b_summary) as fh:
        summary = json.load(fh)

    def summary_ok(edit):
        changed = json.loads(json.dumps(summary))
        edit(changed)
        write_json(b_summary, changed)
        return compare(a, b, tol=1e-12)

    def round_off(sm):
        sm["config"]["target_edge_length"] *= 1 + 1e-14
        sm["artifacts"] = {k: "0" * 64 for k in sm["artifacts"]}

    rows, ok = summary_ok(round_off)
    assert ok and 0.0 < max(v for n, _, v in rows if n == "summary.json config")
    _, ok = summary_ok(lambda sm: sm.update({"pass": False}))
    assert not ok
    _, ok = summary_ok(lambda sm: sm["checks"].update({"nodes": 1}))
    assert not ok
    write_json(b_summary, summary)

    # CSV: each float column normwise; header, row count, integers exact
    header = ("iter", "residual", "ratio")
    base = [(0, 0.5, ""), (1, 3e-7, 0.02), (2, 5.191e-13, 0.03)]
    write_csv(os.path.join(a, "report.csv"), header, base)

    def csv_ok(rows_b, tol=1e-12):
        write_csv(os.path.join(b, "report.csv"), header, rows_b)
        return compare(a, b, tol)[1]

    # entrywise the last residual moves by 1.9e-4, normwise by 2e-19
    assert csv_ok(base[:2] + [(2, 5.192e-13, 0.03)])
    assert not csv_ok(base[:2] + [(2, 5.192e-13, 0.03)], tol=0.0)
    assert not csv_ok(base[:2], tol=float("inf"))
    assert not csv_ok(base[:2] + [(3, 5.191e-13, 0.03)], tol=float("inf"))
    assert not csv_ok(base[:2] + [(2, 5.191e-13, 0.5)])


def test_compare_one_rule_for_nested_lists_fields_and_text(tmp_path):
    # every artifact is read as JSON values: floats normwise, together per
    # top-level key, and everything else exactly
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("mesh", FAST, a) == 0
    assert run("mesh", FAST, b) == 0
    b_summary = os.path.join(b, "summary.json")
    with open(b_summary) as fh:
        summary = json.load(fh)
    sweep = [[0.02, 0.089, 0.094, 0.016], [0.12, 0.527, 0.528, 0.104]]
    summary["checks"]["sweep"] = sweep
    write_json(os.path.join(a, "summary.json"), summary)

    def moved(rel):
        changed = json.loads(json.dumps(summary))
        changed["checks"]["sweep"] = [[x * (1 + rel) for x in r] for r in sweep]
        write_json(b_summary, changed)
        return compare(a, b, tol=1e-12)[1]

    assert moved(1e-14) and not moved(1e-6)
    write_json(b_summary, summary)

    # a renamed VTK field is a structure change, also at tol = inf
    b_vtk = os.path.join(b, "mesh.vtk")
    text = open(b_vtk).read()
    open(b_vtk, "w").write(text.replace("SCALARS subdomain", "SCALARS label"))
    rows, ok = compare(a, b, tol=float("inf"))
    assert not ok and ("mesh.vtk", "structure", float("inf")) in rows
    open(b_vtk, "w").write(text)

    # so is a changed text cell in a CSV report
    header = ("iter", "mode", "residual")
    write_csv(os.path.join(a, "report.csv"), header, [(0, "krylov", 0.5)])
    write_csv(os.path.join(b, "report.csv"), header, [(0, "picard", 0.5)])
    rows, ok = compare(a, b, tol=float("inf"))
    assert not ok and ("report.csv mode", "structure", float("inf")) in rows


def test_compare_lists_one_sided_summary_keys(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("mesh", FAST, a) == 0
    assert run("mesh", FAST, b) == 0
    b_summary = os.path.join(b, "summary.json")
    with open(b_summary) as fh:
        summary = json.load(fh)

    def compared(edit):
        changed = json.loads(json.dumps(summary))
        edit(changed)
        write_json(b_summary, changed)
        rows, ok = compare(a, b)
        return {n: (k, v) for n, k, v in rows if n.startswith("summary")}, ok

    # a key on one side only is listed at any depth and does not fail
    def one_sided(sm):
        sm["checks"]["fluid_steps"] = 17
        sm["checks"]["tag_edge_counts"]["extra"] = 1
        del sm["config"]["mesh_level"]
        sm["note"] = "new"

    rows, ok = compared(one_sided)
    assert ok
    assert rows["summary.json checks.fluid_steps"] == ("added", 0.0)
    assert rows["summary.json checks.tag_edge_counts.extra"] == ("added", 0.0)
    assert rows["summary.json config.mesh_level"] == ("removed", 0.0)
    assert rows["summary.json note"] == ("added", 0.0)
    assert rows["summary.json checks"] == ("normwise", 0.0)
    # a key on both sides whose type or shape differs still fails
    for edit in (lambda sm: sm["checks"].update({"nodes": "many"}),
                 lambda sm: sm["config"].update({"obstacle_outer": [1.0]}),
                 lambda sm: sm["checks"].update({"tag_edge_counts": 3})):
        rows, ok = compared(edit)
        assert not ok
        assert any(k == "structure" for k, _ in rows.values())


def test_compare_rows_for_files_on_one_side(tmp_path):
    # a file only in dir_b is a new artifact and passes; one only in dir_a
    # is missing from the run and fails
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("mesh", FAST, a) == 0
    assert run("mesh", FAST, b) == 0
    os.remove(os.path.join(b, "mesh.txt"))
    rows, ok = compare(a, b)
    assert ("mesh.txt", "removed", float("inf")) in rows
    assert not ok
    assert main(["compare", a, b]) == EXIT_CHECKS_FAILED
    rows, ok = compare(b, a)
    assert ("mesh.txt", "added", 0.0) in rows
    assert ok


def _run_cli(args, env_extra, cwd):
    return subprocess.run(
        [sys.executable, "-m", "fsichannel.cli", *args],
        capture_output=True, text=True, env=child_env(env_extra), cwd=cwd)


def test_determinism_across_thread_counts(tmp_path):
    # the derivative adds a dense LAPACK solve and multi-column products
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FAST))
    for scenario in ("solve-ns", "sensitivity"):
        summaries = []
        for threads in ("1", "4"):
            out = str(tmp_path / f"{scenario}-t{threads}")
            res = _run_cli(
                [scenario, "--config", str(cfg), "--out", out, "--seed", "7"],
                {"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads},
                str(tmp_path))
            assert res.returncode == 0, res.stderr
            with open(os.path.join(out, "summary.json")) as fh:
                summaries.append(json.load(fh))
        # identical artifact hashes: bit-for-bit reproducible results
        assert summaries[0]["artifacts"] == summaries[1]["artifacts"], scenario


def test_mesh_roundtrip_io(tmp_path, coarse_mesh):
    path = str(tmp_path / "mesh.txt")
    save_mesh(path, coarse_mesh)
    again = load_mesh(path)
    assert np.array_equal(coarse_mesh.nodes, again.nodes)
    assert np.array_equal(coarse_mesh.triangles, again.triangles)
    # no numpy scalar reprs may leak into the text format
    text = open(path).read()
    assert "np.float64" not in text and "np.int64" not in text


def test_vtk_output_is_parseable(tmp_path, coarse_mesh):
    V, _ = fluid_spaces(coarse_mesh)
    f = FEFunction.zeros(V)
    f.coefficients[:] = 1.5
    path = str(tmp_path / "state.vtk")
    write_vtk(path, coarse_mesh, point_data={"w": vertex_values(f)})
    lines = open(path).read().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert any(l.startswith("POINTS") for l in lines)
    assert any(l.startswith("CELLS") for l in lines)
    assert any("w" in l for l in lines if l.startswith(("VECTORS", "SCALARS")))
    assert "np.float64" not in "\n".join(lines)


def test_json_csv_writers(tmp_path):
    jpath = str(tmp_path / "x.json")
    write_json(jpath, {"b": 1, "a": [1.5, 2.5]})
    with open(jpath) as fh:
        assert json.load(fh) == {"b": 1, "a": [1.5, 2.5]}
    cpath = str(tmp_path / "x.csv")
    write_csv(cpath, ["h", "err"], [(0.1, 1e-3), (0.05, 2.5e-4)])
    header, rows = open(cpath).read().splitlines()[0], \
        open(cpath).read().splitlines()[1:]
    assert header == "h,err"
    assert len(rows) == 2


def test_write_csv_writes_numpy_floats_as_numbers(tmp_path):
    # numpy 2 floats pass isinstance(c, float) but repr as "np.float64(...)"
    path = tmp_path / "x.csv"
    write_csv(str(path), ["a", "b", "n"], [(np.float64(0.1), 0.25, np.int64(3))])
    assert path.read_text().splitlines() == ["a,b,n", "0.1,0.25,3"]
