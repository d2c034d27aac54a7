"""Batch front door: scenario execution, configuration, result emission.

Usage:
    fsichannel <scenario> [--config cfg.json] [--out dir] [--seed N]
    fsichannel describe <scenario>
    fsichannel compare <dir_a> <dir_b> [--tol T]

Exit codes: 0 success, 1 scenario checks failed, 2 invalid input (a
``ValueError``), 3 solver failure (a ``linsolve.SolverError``), 4 internal error.
"""

import argparse
import hashlib
import json
import math
import numbers
import os
import sys

import numpy as np

from .elasticity import interface_trace
from .fluid import InflowProfile, solve_navier_stokes
from .fsi import CouplingOptions, FSISolver
from .io import read_vtk, save_mesh, vertex_values, write_csv, write_json, write_vtk
from .linsolve import SolverError
from .mesh import (
    ChannelGeometry,
    build_channel_mesh,
    refine_uniform,
    validate_mesh,
)
from .sensitivity import SensitivitySolver, taylor_test
from .verification import mms_convergence_study

EXIT_CHECKS_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INTERNAL = 4


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "channel_length": 4.0,
    "channel_height": 1.0,
    "obstacle_outer": (1.0, 0.3, 1.4, 0.7),
    "obstacle_inner": (1.1, 0.4, 1.3, 0.6),
    "target_edge_length": 0.1,
    "mesh_level": 0,
    "nu": 1.0,
    "lam": 1.0,
    "mu": 50.0,
    "g_magnitude": 0.05,
    "dg_magnitude": 1.0,
    "tol": 1e-9,
    "max_iter": 50,
    "relaxation": 1.0,
    "traction_interpretation": "full-vector",
    "warm_start": True,
    "h_list": [1e-2, 3e-3, 1e-3, 3e-4],
    "mms_kind": "trig",
    "mms_levels": 4,
    "mms_h0": 0.2,
    "g_sweep": [0.02, 0.05, 0.08, 0.12],
}

_GEOMETRY_KEYS = (
    "channel_length", "channel_height", "obstacle_outer", "obstacle_inner",
    "target_edge_length", "mesh_level",
)
_FSI_KEYS = _GEOMETRY_KEYS + (
    "nu", "lam", "mu", "g_magnitude", "tol", "max_iter", "relaxation",
    "traction_interpretation", "warm_start",
)

SCENARIOS = {}


def scenario(name, keys, blurb, artifacts):
    def wrap(fn):
        SCENARIOS[name] = {
            "runner": fn, "keys": tuple(keys), "blurb": blurb,
            "artifacts": tuple(artifacts),
        }
        return fn
    return wrap


_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string", list: "a list of numbers",
          tuple: "a rectangle [x0, y0, x1, y1] or null"}


def _convert(key, value, kind=None):
    """``value`` as ``kind``, by default the type of ``DEFAULTS[key]``: a
    float from any number, an int, bool or str as given, a list of floats,
    and for the tuple defaults, the obstacle rectangles (x0, y0, x1, y1),
    a tuple of 4 floats or None for null.  NaN and infinities, which
    ``json.load`` reads, are rejected."""
    kind = kind or type(DEFAULTS[key])
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key}: {value!r} is not a finite number")
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if number and (kind is float or kind is int and isinstance(value, numbers.Integral)):
        return kind(value)
    if kind in (bool, str) and isinstance(value, kind):
        return value
    if isinstance(value, (list, tuple)) and (kind is list or kind is tuple and len(value) == 4):
        return kind(_convert(key, v, float) for v in value)
    if kind is tuple and value is None:
        return None
    raise ConfigError(f"{key}: {value!r} is not {_KINDS[kind]}")


def resolve_config(raw):
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object of key: value pairs")
    unknown = sorted(set(raw) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(DEFAULTS)
    cfg.update((key, _convert(key, value)) for key, value in raw.items())
    if not 0.0 < cfg["relaxation"] <= 1.0:
        raise ConfigError("relaxation must lie in (0, 1]")
    for key in ("tol", "nu", "mu", "target_edge_length"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg["lam"] < 0:
        raise ConfigError("lam must be nonnegative")
    if cfg["mesh_level"] < 0:
        raise ConfigError("mesh_level must be nonnegative")
    if cfg["max_iter"] < 1:
        raise ConfigError("max_iter must be at least 1")
    if cfg["traction_interpretation"] not in ("full-vector", "normal-projected"):
        raise ConfigError("traction_interpretation must be full-vector or "
                          "normal-projected")
    if cfg["mms_kind"] not in ("trig", "polynomial"):
        raise ConfigError("mms_kind must be trig or polynomial")
    if cfg["mms_levels"] < 2:
        raise ConfigError("mms_levels must be at least 2 (a rate needs two)")
    if len(set(cfg["h_list"])) < 3 or min(cfg["h_list"]) <= 0:
        raise ConfigError("h_list needs at least 3 distinct positive steps")
    if cfg["dg_magnitude"] == 0:
        raise ConfigError("dg_magnitude must be nonzero")
    if not cfg["g_sweep"]:
        raise ConfigError("g_sweep must not be empty")
    return cfg


def geometry_from_config(cfg) -> ChannelGeometry:
    return ChannelGeometry(
        channel_length=cfg["channel_length"],
        channel_height=cfg["channel_height"],
        obstacle_outer=cfg["obstacle_outer"],
        obstacle_inner=cfg["obstacle_inner"],
        target_edge_length=cfg["target_edge_length"],
    )


def mesh_from_config(cfg):
    mesh = build_channel_mesh(geometry_from_config(cfg))
    for _ in range(cfg["mesh_level"]):
        mesh = refine_uniform(mesh)
    return mesh


def _inflow(cfg, key="g_magnitude"):
    return InflowProfile(cfg[key], cfg["channel_height"])


def _fsi_solver(cfg):
    return FSISolver(mesh_from_config(cfg), (cfg["lam"], cfg["mu"]), cfg["nu"])


def _coupling_options(cfg, quasi_newton=True):
    return CouplingOptions(
        relaxation=cfg["relaxation"],
        tol=cfg["tol"],
        max_outer_iter=cfg["max_iter"],
        traction_interpretation=cfg["traction_interpretation"],
        warm_start=cfg["warm_start"],
        quasi_newton=quasi_newton,
    )


@scenario(
    "mesh", _GEOMETRY_KEYS,
    "Builds the tagged two-subdomain channel mesh, runs the independent "
    "half-edge validator, and reports counts, loops, and the Euler "
    "characteristic.",
    ("mesh.txt", "mesh.vtk", "summary.json"),
)
def run_mesh(cfg, out, seed):
    mesh = mesh_from_config(cfg)
    report = validate_mesh(mesh)
    save_mesh(os.path.join(out, "mesh.txt"), mesh)
    write_vtk(os.path.join(out, "mesh.vtk"), mesh)
    return {
        "valid": bool(report.ok),
        "nodes": int(mesh.num_nodes),
        "triangles": int(mesh.num_triangles),
        "euler_characteristic": int(report.euler_characteristic),
        "boundary_loops": int(report.num_boundary_loops),
        "tag_edge_counts": {k: int(v) for k, v in report.tag_edge_counts.items()},
    }, bool(report.ok)


@scenario(
    "solve-ns",
    _GEOMETRY_KEYS + ("nu", "g_magnitude", "tol", "max_iter"),
    "Solves the steady Navier-Stokes problem on the undeformed reference "
    "domain (identity flow map) by the lagged-convection fixed point and "
    "writes the velocity/pressure fields and the iteration report.",
    ("fields_ns.vtk", "report_ns.csv", "summary.json"),
)
def run_solve_ns(cfg, out, seed):
    mesh = mesh_from_config(cfg)
    state, rep = solve_navier_stokes(
        mesh, g=_inflow(cfg), nu=cfg["nu"], tol=cfg["tol"],
        max_iter=cfg["max_iter"],
    )
    write_vtk(os.path.join(out, "fields_ns.vtk"), mesh, point_data={
        "velocity": vertex_values(state.w),
        "pressure": vertex_values(state.p),
    })
    write_csv(os.path.join(out, "report_ns.csv"),
              ("iter", "residual", "ratio"), rep.rows())
    residual = float(rep.residual_history[-1])
    return {
        "iterations": rep.iterations,
        "final_residual": residual,
        "max_increment_ratio": float(max(rep.increment_ratios, default=0.0)),
    }, bool(rep.converged and residual <= 1e-8)


@scenario(
    "solve-fsi", _FSI_KEYS,
    "Runs the partitioned coupling: fluid solve on the current flow map, "
    "pressure traction on the interface, clamped elasticity solve, "
    "displacement update (relaxed on the first step, quasi-Newton IQN-ILS "
    "after it), iterated to the coupled fixed point.",
    ("fields_fsi.vtk", "report_fsi.csv", "summary.json"),
)
def run_solve_fsi(cfg, out, seed):
    solver = _fsi_solver(cfg)
    state = solver.solve(_inflow(cfg), _coupling_options(cfg))
    residual = float(solver.residual(state, _inflow(cfg)))
    write_vtk(os.path.join(out, "fields_fsi.vtk"), solver.mesh, point_data={
        "velocity": vertex_values(state.fluid.w),
        "pressure": vertex_values(state.fluid.p),
        "displacement": vertex_values(state.u),
    })
    write_csv(os.path.join(out, "report_fsi.csv"),
              ("iter", "increment", "ratio", "fluid_iters", "min_J",
               "min_eig_A", "secant_columns"), state.log_rows)
    return {
        "outer_iterations": state.report.iterations,
        "max_outer_ratio": float(max(state.report.increment_ratios, default=0.0)),
        "coupled_residual": residual,
        "max_interface_displacement": float(
            np.abs(interface_trace(state.u)).max()),
        "fluid_steps": sum(row[3] for row in state.log_rows),
    }, bool(state.report.converged and residual <= 1e-7)


@scenario(
    "sensitivity",
    _FSI_KEYS + ("dg_magnitude",),
    "Computes the directional derivative of the coupled state with respect "
    "to the inflow profile by GMRES on the interface equation, one "
    "matrix-free coupled step per product (harmonic lift, linearized fluid "
    "solve, traction product rule, elasticity solve), checked by one more "
    "coupled step whose fixed-point residual is reported.",
    ("fields_sens.vtk", "report_sens.csv", "summary.json"),
)
def run_sensitivity(cfg, out, seed):
    solver = _fsi_solver(cfg)
    base = solver.solve(_inflow(cfg), _coupling_options(cfg))
    sens = SensitivitySolver(solver, base).solve(_inflow(cfg, "dg_magnitude"))
    write_vtk(os.path.join(out, "fields_sens.vtk"), solver.mesh, point_data={
        "dvelocity": vertex_values(sens.dw),
        "dpressure": vertex_values(sens.dp),
        "ddisplacement": vertex_values(sens.du),
    })
    write_csv(os.path.join(out, "report_sens.csv"),
              ("iter", "residual", "ratio"), sens.report.rows())
    return {
        "iterations": sens.report.iterations,
        "check_residual": float(sens.report.residual_history[-1]),
        "coupling_ritz_radius": sens.ritz_radius,
    }, bool(sens.report.converged)


@scenario(
    "taylor-test",
    _FSI_KEYS + ("dg_magnitude", "h_list"),
    "Full nonlinear solves at perturbed inflow magnitudes versus the "
    "computed derivative: Taylor remainders must shrink at second order "
    "for displacement, velocity, and pressure.",
    ("report_taylor.csv", "summary.json"),
)
def run_taylor(cfg, out, seed):
    solver = _fsi_solver(cfg)
    m0, dm, H = cfg["g_magnitude"], cfg["dg_magnitude"], cfg["channel_height"]
    report = taylor_test(
        solver,
        lambda h: InflowProfile(m0 + h * dm, H),
        InflowProfile(dm, H),
        cfg["h_list"],
        _coupling_options(cfg),
    )
    write_csv(os.path.join(out, "report_taylor.csv"),
              ("h", "R_u", "R_w", "R_p"), report.rows())
    slopes = {
        "slope_u": report.slope_u,
        "slope_w": report.slope_w,
        "slope_p": report.slope_p,
    }
    ok = all(s >= 1.8 for s in slopes.values())
    return {**slopes, "n_valid_h": len(report.hs),
            "n_dropped": len(report.dropped)}, ok


@scenario(
    "mms",
    ("nu", "mms_kind", "mms_levels", "mms_h0"),
    "Manufactured-solution convergence study on the straight channel: "
    "errors against an exact pair on uniformly refined meshes with "
    "least-squares fitted rates.",
    ("report_mms.csv", "summary.json"),
)
def run_mms(cfg, out, seed):
    table = mms_convergence_study(
        kind=cfg["mms_kind"], levels=cfg["mms_levels"], h0=cfg["mms_h0"],
        nu=cfg["nu"],
    )
    write_csv(os.path.join(out, "report_mms.csv"),
              ("h", "h1_velocity_error", "l2_pressure_error"), table.rows())
    ok = (abs(table.rate_velocity - 2.0) <= 0.2
          and abs(table.rate_pressure - 2.0) <= 0.3)
    if cfg["mms_kind"] == "polynomial":
        ok = max(table.h1_velocity) <= 1e-10 and max(table.l2_pressure) <= 1e-10
    return {
        "rate_velocity": table.rate_velocity,
        "rate_pressure": table.rate_pressure,
        "finest_h1_velocity_error": table.h1_velocity[-1],
        "finest_l2_pressure_error": table.l2_pressure[-1],
    }, bool(ok)


@scenario(
    "probes",
    tuple(k for k in _FSI_KEYS if k != "g_magnitude") + ("g_sweep",),
    "Contraction diagnostics along an inflow-magnitude sweep: outer "
    "ratios of the plain relaxed coupling iteration, the Arnoldi estimate "
    "of the interface coupling map's spectral radius, and the "
    "constant-coefficient linearized iteration's ratios.",
    ("report_probes.csv", "summary.json"),
)
def run_probes(cfg, out, seed):
    solver = _fsi_solver(cfg)
    H = cfg["channel_height"]
    # the plain relaxed map: its increment ratios measure its contraction
    opts = _coupling_options(cfg, quasi_newton=False)
    rows = []
    for mag in cfg["g_sweep"]:
        base = solver.solve(InflowProfile(mag, H), opts)
        outer = max(base.report.increment_ratios, default=0.0)
        sens = SensitivitySolver(solver, base)
        rho = sens.coupling_spectral_radius(seed)[0]
        _, _, lrep = sens.linearized.t_iteration(InflowProfile(1.0, H))
        eta_T = max(lrep.increment_ratios, default=0.0)
        rows.append((mag, float(outer), rho, float(eta_T)))
    write_csv(os.path.join(out, "report_probes.csv"),
              ("g_magnitude", "outer_ratio", "coupling_map_norm",
               "T_iteration_eta"), rows)
    rhos = [r[2] for r in rows]
    return {
        "max_coupling_map_norm": max(rhos),
        "sweep": [list(r) for r in rows],
    }, all(r < 1.0 for r in rhos)


def _hash_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def run(name, cfg_raw, out, seed=0):
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}")
    cfg = resolve_config(cfg_raw)
    os.makedirs(out, exist_ok=True)
    checks, ok = SCENARIOS[name]["runner"](cfg, out, seed)
    artifacts = {fname: _hash_file(os.path.join(out, fname))
                 for fname in SCENARIOS[name]["artifacts"] if fname != "summary.json"}
    write_json(os.path.join(out, "summary.json"), {
        "scenario": name,
        "seed": seed,
        "config": cfg,
        "checks": checks,
        "pass": bool(ok),
        "artifacts": artifacts,
    })
    return 0 if ok else EXIT_CHECKS_FAILED


def describe(name):
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}")
    info = SCENARIOS[name]
    lines = [f"scenario: {name}", "", info["blurb"], "",
             "config keys read:"]
    lines += [f"  {k}" for k in info["keys"]]
    lines.append("artifacts written:")
    lines += [f"  {a}" for a in info["artifacts"]]
    return "\n".join(lines)


def _normwise(a, b):
    """max|a - b| / max(|a|_inf, |b|_inf): round-off-sized entries carry no
    relative accuracy, so differences are measured against the block."""
    scale = float(max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)))
    diff = float(np.abs(a - b).max(initial=0.0))
    return diff / scale if scale > 0 else diff


def _cell(text):
    """A CSV cell as an int, a float or text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _tree(path):
    """An artifact as a dict of JSON values, or None for a file compared by
    hash: ``summary.json`` without the ``artifacts`` hashes of the files
    compared directly; a CSV report as one list of cells per column, with
    the header and row lengths under ""; a VTK file as one flat list per
    block, with the keyword lines under ""."""
    name = os.path.basename(path)
    if name.endswith(".vtk"):
        structure, blocks = read_vtk(path)
        return {"": structure, **{k: v.ravel().tolist() for k, v in blocks.items()}}
    if name != "summary.json" and not name.endswith(".csv"):
        return None
    with open(path) as fh:
        text = fh.read()
    if name == "summary.json":
        return {k: v for k, v in json.loads(text).items() if k != "artifacts"}
    header, *rows = [line.split(",") for line in text.splitlines() if line] or [[]]
    return {"": [header, [len(r) for r in rows]],
            **{c: [_cell(r[j]) for r in rows if j < len(r)]
               for j, c in enumerate(header)}}


def _split(value, floats):
    """The skeleton of a JSON value: each float replaced by a placeholder
    and appended to ``floats``, each other leaf paired with its type, so
    that ``True`` and ``1`` differ."""
    if isinstance(value, dict):
        return {k: _split(value[k], floats) for k in sorted(value)}
    if isinstance(value, list):
        return [_split(v, floats) for v in value]
    if isinstance(value, float):
        floats.append(value)
        return float
    return type(value), value


def _json_diff(a, b):
    """Difference of two JSON values: inf if their skeletons differ (see
    ``_split``), else ``_normwise`` over all their floats together.  Dicts
    compare on their common keys; see ``_one_sided`` for the others."""
    if isinstance(a, dict) and isinstance(b, dict):
        return max((_json_diff(a[k], b[k]) for k in a.keys() & b.keys()),
                   default=0.0)
    fa, fb = [], []
    if _split(a, fa) != _split(b, fb):
        return float("inf")
    return _normwise(np.array(fa), np.array(fb))


def _one_sided(a, b, label):
    """``removed``/``added`` rows for the dict keys, at any depth, that only
    ``a``/only ``b`` holds: a new check or a dropped config key is listed,
    not failed."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
    rows = [(f"{label}{k}", "removed", 0.0) for k in sorted(a.keys() - b.keys())]
    rows += [(f"{label}{k}", "added", 0.0) for k in sorted(b.keys() - a.keys())]
    for k in sorted(a.keys() & b.keys()):
        rows += _one_sided(a[k], b[k], f"{label}{k}.")
    return rows


def compare(dir_a, dir_b, tol=0.0):
    """Per-field relative differences between two result directories.

    Each CSV, VTK and ``summary.json`` artifact (``_tree``) gets one row per
    top-level key by ``_json_diff``: a ``structure`` row fails at every
    tolerance, and a key on one side only is listed and does not fail.
    Other files are compared by hash.  A file only in ``dir_a`` is a
    ``removed`` row and fails; one only in ``dir_b`` is an ``added`` row
    and does not."""
    try:
        names_a, names_b = set(os.listdir(dir_a)), set(os.listdir(dir_b))
        if not names_a & names_b:
            raise ConfigError("no common artifacts to compare")
        diffs = [(n, "removed", float("inf")) for n in sorted(names_a - names_b)]
        diffs += [(n, "added", 0.0) for n in sorted(names_b - names_a)]
        ok = names_a <= names_b
        for name in sorted(names_a & names_b):
            pa, pb = os.path.join(dir_a, name), os.path.join(dir_b, name)
            ta, tb = _tree(pa), _tree(pb)
            if ta is None:
                same = _hash_file(pa) == _hash_file(pb)
                diffs.append((name, "hash", 0.0 if same else float("inf")))
                ok = ok and (same or tol == float("inf"))
                continue
            for key in sorted(ta.keys() & tb.keys()):
                diff = _json_diff(ta[key], tb[key])
                kind = "normwise" if diff < float("inf") else "structure"
                diffs.append((f"{name} {key}".rstrip(), kind, diff))
                ok = ok and kind != "structure" and diff <= tol
            diffs += _one_sided(ta, tb, f"{name} ")
    except OSError as exc:  # a missing directory, or a subdirectory in one
        raise ConfigError(f"cannot compare {exc.filename}: {exc.strerror}") from exc
    return diffs, ok


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fsichannel", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--out", default=f"out-{name}")
        sp.add_argument("--seed", type=int, default=0)
    dp = sub.add_parser("describe")
    dp.add_argument("scenario")
    cp = sub.add_parser("compare")
    cp.add_argument("dir_a")
    cp.add_argument("dir_b")
    cp.add_argument("--tol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return EXIT_CONFIG
    try:
        if args.command == "describe":
            print(describe(args.scenario))
            return 0
        if args.command == "compare":
            diffs, ok = compare(args.dir_a, args.dir_b, args.tol)
            for name, kind, value in diffs:
                print(f"{name}: {kind} diff {value!r}")
            print("PASS" if ok else "FAIL")
            return 0 if ok else EXIT_CHECKS_FAILED
        cfg_raw = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    cfg_raw = json.load(fh)
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: "
                                  f"{exc.strerror}") from exc
        return run(args.command, cfg_raw, args.out, args.seed)
    except ValueError as exc:  # ConfigError, GeometryError, MeshError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
