"""Command line front end: job loading, dispatch, deterministic JSON
reports, and CSV/OBJ point-cloud emission.

Exit codes: 0 all checks passed, 1 computation finished with a failing
verdict, 2 usage or configuration error, 3 numerical failure, 4 output IO
failure. Reports are canonical JSON (17 significant digits, fixed key
order), so one (config, seed) pair always produces identical bytes.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import re
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from ._num import (SOBOL_MAXDIM, SobolCountError, canonical_json, prescaled,
                   sobol_unit_sphere, to_complex, to_real)
from .errors import GermSyntaxError, PencilLabError, ProjectionFailure
from .flows import (FlowKind, FlowSpec, equivalence_transport, integrate,
                    monodromy_return)
from .germ import MixedGerm, evaluate, format_germ, parse_germ
from .pencil import (h_theta, pointcloud_rows, sample_fiber,
                     stereographic_project)
from .regularity import (critical_value_isolation_scan, d_regularity_search,
                         radial_lambda_scan, strong_milnor_check,
                         tube_sphere_transversality)
from .topology import (brieskorn_exponents, closed_form_mu,
                       double_fiber_consistency, link_surface_euler,
                       staircase_mu)

TWO_PI = 2.0 * math.pi

# report and .partial schema; "3" prints result objects field by field
SCHEMA = "3"

FLOW_KINDS = {"monodromy": FlowKind.MONODROMY, "radial": FlowKind.RADIAL,
              "tube": FlowKind.TUBE_EQUIVALENCE}

# every job field as (name, default, flag type, range, flag help); config
# files may set any of them, explicit flags win over file values, and the
# report lists the resolved config in this order. A range ("positive",
# "non-negative" or "finite") is checked on the resolved value when it is set.
FIELDS = (
    ("command", None, None, None, "job command (may also come from --config)"),
    ("germ", None, None, None, "expression like 'z1^2+z2^3' (zbar1 = "
                               "conjugate) or inline germ JSON"),
    ("n", None, int, None, "number of complex variables (inferred when "
                           "omitted)"),
    ("exponents", None, None, None, "comma separated power-sum exponents, "
                                    "e.g. 2,3,5"),
    ("radius", 0.5, float, "positive", "sphere radius (default 0.5)"),
    ("eta", None, float, "positive", "tube level |f| = eta (default 1e-3 of "
                                     "the germ scale at the radius)"),
    ("theta", 0.0, None, "finite", "pencil angle; accepts 'pi/2' style "
                                   "expressions"),
    ("budget", 10000, int, "positive", "sample or seed budget (default "
                                       "10000)"),
    ("polish", 20, int, "non-negative", "local polish runs for dreg "
                                        "(default 20)"),
    ("count", 50, int, "positive", "starts or output points (default 50)"),
    ("revolutions", 1.0, float, "finite", "phase revolutions for monodromy "
                                          "(default 1)"),
    ("kind", "monodromy", None, None, "field kind for the flow command"),
    ("start", None, None, None, "start point, 2n reals: real parts then "
                                "imaginary"),
    ("direction", None, None, None, "scan direction, 2n reals (milnor-diag)"),
    ("t0", 0.0, float, "finite", "flow start time"),
    ("t1", None, float, "finite", "flow end time (default depends on the "
                                  "kind)"),
    ("seed", 0, int, None, "64-bit job seed (default 0)"),
    ("newton_tol", 1e-10, float, "positive", "Newton and pass-threshold "
     "tolerance (default 1e-10; tube-check uses a fixed 1e-12, equivalence "
     "none)"),
    ("rtol", 1e-10, float, "positive", "integrator relative tolerance "
                                       "(default 1e-10)"),
    ("atol", 1e-12, float, "positive", "integrator absolute tolerance "
                                       "(default 1e-12)"),
    ("batch", 200, int, "positive", "seed batch size for euler (default 200)"),
    ("stability", 20, int, "positive", "quiet batches required by euler "
                                       "(default 20)"),
    ("redraws", 10, int, "positive", "functional redraw limit for euler "
                                     "(default 10)"),
    ("metric", None, None, None, "JSON 2n x 2n positive definite matrix for "
                                 "dreg"),
    ("pole", None, None, None, "stereographic pole, 2n reals (sample-link)"),
    ("report", None, None, None, "report JSON path (stdout when omitted)"),
    ("out", None, None, None, "point-cloud or trace base path"),
)
DEFAULTS = {name: default for name, default, *_ in FIELDS}


class UsageError(Exception):
    """Configuration problem; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# flag and config parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pencillab",
        description="numerical pencil, transversality, flow and link "
                    "topology checks for polynomial map-germs",
        epilog="commands: " + ", ".join(COMMANDS))
    p.add_argument("command", nargs="?", default=None, help=FIELDS[0][4])
    p.add_argument("--config", default=None,
                   help="JSON job file; explicit flags override its values")
    for name, _, kind, _, text in FIELDS[1:]:
        choices = sorted(FLOW_KINDS) if name == "kind" else None
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind,
                       default=None, choices=choices, help=text)
    p.add_argument("--version", action="version",
                   version=f"pencillab {__version__}")
    return p


def parse_angle(text) -> float:
    """Angle literal: a float, or an arithmetic expression over 'pi'."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return float(text)

    def ev(nd):
        if isinstance(nd, ast.Constant) and type(nd.value) in (int, float):
            return float(nd.value)
        if isinstance(nd, ast.Name) and nd.id == "pi":
            return math.pi
        if isinstance(nd, ast.UnaryOp) and isinstance(nd.op, (ast.USub,
                                                              ast.UAdd)):
            v = ev(nd.operand)
            return -v if isinstance(nd.op, ast.USub) else v
        if isinstance(nd, ast.BinOp) and isinstance(
                nd.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = ev(nd.left), ev(nd.right)
            if isinstance(nd.op, ast.Add):
                return a + b
            if isinstance(nd.op, ast.Sub):
                return a - b
            if isinstance(nd.op, ast.Mult):
                return a * b
            return a / b
        raise ValueError(f"bad angle {text!r}")

    try:
        return ev(ast.parse(str(text).strip(), mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"bad angle {text!r}") from exc
    except ZeroDivisionError as exc:
        raise ValueError(f"division by zero in angle {text!r}") from exc
    except RecursionError as exc:
        raise ValueError("angle expression nested too deeply") from exc


def _number_list(value, field: str, cast) -> list:
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [s for s in str(value).split(",") if s.strip()]
    try:
        return [cast(v) for v in items]
    except (TypeError, ValueError) as exc:
        kind = "integers" if cast is int else "a list of reals"
        raise UsageError(field, f"expected {kind}, got {value!r}") from exc


def load_job(args: argparse.Namespace
             ) -> Tuple[dict, Optional[dict], Dict[str, object]]:
    """Merge config-file values and explicit flags over the defaults.

    Returns (resolved config, raw file values or None, flag overrides).
    """
    file_vals: Optional[dict] = None
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_vals = json.load(fh)
        except OSError as exc:
            raise UsageError("config", f"cannot read {args.config}: {exc}")
        except (json.JSONDecodeError, RecursionError) as exc:
            raise UsageError("config", f"invalid JSON: {exc}")
        if not isinstance(file_vals, dict):
            raise UsageError("config", "job file must hold a JSON object")
        for key in file_vals:
            if key not in DEFAULTS:
                raise UsageError(str(key), "unknown config field")

    overrides: Dict[str, object] = {
        key: getattr(args, key) for key in DEFAULTS
        if getattr(args, key, None) is not None}

    cfg = dict(DEFAULTS)
    if file_vals:
        cfg.update(file_vals)
    cfg.update(overrides)
    _normalize(cfg)
    _validate(cfg)
    return cfg, file_vals, overrides


def _normalize(cfg: dict) -> None:
    try:
        cfg["theta"] = parse_angle(cfg["theta"])
    except ValueError as exc:
        raise UsageError("theta", str(exc))
    if cfg["exponents"] is not None:
        cfg["exponents"] = _number_list(cfg["exponents"], "exponents", int)
    for key in ("start", "direction", "pole"):
        if cfg[key] is not None:
            cfg[key] = _number_list(cfg[key], key, float)
            if not all(math.isfinite(v) for v in cfg[key]):
                raise UsageError(key, f"{key} must be finite")
            if key != "start" and not any(cfg[key]):
                raise UsageError(key, f"{key} must be nonzero")
    if cfg["metric"] is not None and not isinstance(cfg["metric"], list):
        try:
            cfg["metric"] = json.loads(str(cfg["metric"]))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise UsageError("metric", f"invalid JSON: {exc}")
    for key, _, kind, _, _ in FIELDS:
        if kind is not None and cfg[key] is not None:
            try:
                cfg[key] = kind(cfg[key])
            except (TypeError, ValueError):
                noun = "an integer" if kind is int else "a real"
                raise UsageError(key, f"expected {noun}, got {cfg[key]!r}")


def _validate(cfg: dict) -> None:
    cmd = cfg["command"]
    if cmd is None:
        raise UsageError("command", "no command given (positional argument "
                                    "or 'command' in the job file)")
    if cmd not in COMMANDS:
        raise UsageError("command", f"unknown command {cmd!r}; expected one "
                                    f"of {', '.join(COMMANDS)}")
    if cmd == "mu":
        if not cfg["exponents"]:
            raise UsageError("exponents", "mu needs --exponents")
        if any(a < 2 for a in cfg["exponents"]):
            raise UsageError("exponents", "all exponents must be at least 2")
    elif cfg["germ"] is None:
        raise UsageError("germ", f"{cmd} needs a germ")
    for key, _, kind, bound, _ in FIELDS:
        value = cfg[key]
        if bound is None or value is None:
            continue
        finite = kind is int or math.isfinite(value)
        if bound == "finite" and not finite:
            raise UsageError(key, f"{key} must be finite")
        if bound == "positive" and not (finite and value > 0):
            noun = "integer" if kind is int else "real"
            raise UsageError(key, f"{key} must be a positive {noun}")
        if bound == "non-negative" and not (finite and value >= 0):
            raise UsageError(key, f"{key} must be non-negative")
    if not 0 <= cfg["seed"] < 2 ** 64:
        raise UsageError("seed", "seed must fit in 64 bits")
    if cfg["kind"] not in FLOW_KINDS:
        raise UsageError("kind", f"unknown flow kind {cfg['kind']!r}")


def resolve_germ(cfg: dict) -> MixedGerm:
    value = cfg["germ"]
    if isinstance(value, dict):
        try:
            return MixedGerm.from_json_dict(value)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError("germ", f"bad germ JSON: {exc}")
    text = str(value).strip()
    if text.startswith("{"):
        try:
            return MixedGerm.from_json_dict(json.loads(text))
        except (KeyError, RecursionError, TypeError, ValueError) as exc:
            raise UsageError("germ", f"bad germ JSON: {exc}")
    n = cfg["n"]
    if n is None:
        seen = [int(m) for m in re.findall(r"z(?:bar)?(\d+)", text)]
        if not seen:
            raise UsageError("germ", "no variables found in the expression")
        # z0 alone is parsed at n = 1, where its index is out of range
        n = max(max(seen), 1)
    if n < 1:
        raise UsageError("n", "n must be at least 1")
    try:
        return parse_germ(text, n)
    except (GermSyntaxError, ValueError) as exc:
        raise UsageError("germ", str(exc))


def _resolve_point(cfg: dict, field: str, n: int) -> np.ndarray:
    vals = cfg[field]
    if len(vals) != 2 * n:
        raise UsageError(field, f"expected {2 * n} reals (real parts then "
                                f"imaginary), got {len(vals)}")
    return np.asarray(vals, dtype=float)


def _resolve_metric(cfg: dict, n: int) -> Optional[np.ndarray]:
    if cfg["metric"] is None:
        return None
    Q = np.asarray(cfg["metric"], dtype=float)
    dim = 2 * n
    if Q.shape != (dim, dim):
        raise UsageError("metric", f"expected a {dim}x{dim} matrix")
    if not np.allclose(Q, Q.T, rtol=0.0, atol=1e-12 * max(1.0,
                                                          np.abs(Q).max())):
        raise UsageError("metric", "matrix must be symmetric")
    try:
        np.linalg.cholesky(Q)
    except np.linalg.LinAlgError:
        raise UsageError("metric", "matrix must be positive definite")
    return Q


def _default_eta(cfg: dict, germ: MixedGerm) -> float:
    if cfg["eta"] is not None:
        return cfg["eta"]
    return 1e-3 * germ.scale(cfg["radius"])


# ---------------------------------------------------------------------------
# point-cloud emission
# ---------------------------------------------------------------------------

def _out_base(cfg: dict, fallback: str) -> str:
    base = cfg["out"] if cfg["out"] else fallback
    return re.sub(r"\.(csv|obj)$", "", str(base))


def _write_csv(path: str, germ: MixedGerm, Z: np.ndarray) -> int:
    rows = pointcloud_rows(germ, Z)
    header = ",".join([f"x{j}" for j in range(2 * germ.n)]
                      + ["theta", "norm", "absf"])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header,
               comments="")
    return len(rows)


def _write_obj(path: str, Y: np.ndarray) -> int:
    np.savetxt(path, Y, fmt="v" + " %.17g" * Y.shape[1],
               header="stereographic point cloud")
    return len(Y)


def _resolve_pole(germ: MixedGerm, theta: float, radius: float,
                  pole_cfg: Optional[List[float]], X: np.ndarray,
                  surface_test: bool) -> Tuple[np.ndarray, bool]:
    """Pole on the sampling sphere, pushed off the surface if it sits on it.

    'On the surface' means either the member function vanishes at the pole
    (so the sampled set passes through it) or a sampled point lies near it;
    both break the projection, so the pole is rotated by a deterministic
    tangent step until clear.
    """
    dim = 2 * germ.n
    if pole_cfg is None:
        pole = np.zeros(dim)
        pole[-1] = radius
    else:
        p = prescaled(pole_cfg)
        pole = radius * p / float(np.linalg.norm(p))
    scale_h = max(germ.scale(radius), 1e-300)
    r2 = radius * radius

    def on_surface(p: np.ndarray) -> bool:
        if len(X):
            denom = 1.0 - (X @ p) / r2
            if float(np.min(np.abs(denom))) < 1e-3:
                return True
        if surface_test:
            h = float(h_theta(germ, theta, to_complex(p)))
            if abs(h) < 1e-3 * scale_h:
                return True
        return False

    if not on_surface(pole):
        return pole, False
    M = np.concatenate([pole[:, None], np.eye(dim)], axis=1)
    Qb, _ = np.linalg.qr(M)
    tangent = Qb[:, 1]
    angle = 0.05
    cand = pole
    for _ in range(10):
        cand = pole + angle * radius * tangent
        cand = radius * cand / float(np.linalg.norm(cand))
        if not on_surface(cand):
            break
        angle *= 2.0
    return cand, True


def _emit_cloud(cfg: dict, germ: MixedGerm, Z: np.ndarray, base: str,
                warnings: List[str], surface_test: bool) -> dict:
    files: dict = {"csv": base + ".csv"}
    files["csv_rows"] = _write_csv(files["csv"], germ, Z)
    if germ.n == 2:
        X = to_real(Z)
        pole, perturbed = _resolve_pole(germ, cfg["theta"], cfg["radius"],
                                        cfg["pole"], X, surface_test)
        if perturbed:
            warnings.append("projection pole lies on the sampled surface; "
                            "auto-perturbed")
        Y = stereographic_project(X, pole, cfg["radius"])
        obj_path = base + ".obj"
        files["obj"] = obj_path
        files["obj_vertices"] = _write_obj(obj_path, Y)
        files["pole"] = [float(v) for v in pole]
        files["pole_perturbed"] = perturbed
    return files


# ---------------------------------------------------------------------------
# start-point sampling shared by flow commands
# ---------------------------------------------------------------------------

def _fiber_starts(germ: MixedGerm, theta: float, radius: float, quota: int,
                  seed: int, newton_tol: float) -> np.ndarray:
    pts: List[np.ndarray] = []
    for k in range(50):
        if len(pts) >= quota:
            break
        want = max(2 * (quota - len(pts)), 64)
        fs = sample_fiber(germ, theta, radius, want, seed + 7919 * k,
                          newton_tol=min(newton_tol, 1e-12))
        pts.extend(fs.points[:quota - len(pts)])
    if len(pts) < quota:
        raise ProjectionFailure(
            f"collected {len(pts)}/{quota} fiber start points")
    return np.asarray(pts, dtype=complex)


def _sphere_starts(germ: MixedGerm, radius: float, eta: float, quota: int,
                   seed: int) -> np.ndarray:
    floor = max(2.0 * eta, germ.f_floor(radius))
    for factor in (8, 32, 128):
        U = sobol_unit_sphere(seed, (0xE9, 0), factor * quota, 2 * germ.n)
        Z = to_complex(radius * U)
        absf = np.abs(evaluate(germ, Z))
        keep = Z[absf > floor]
        if len(keep) >= quota:
            return keep[:quota]
    raise ProjectionFailure(
        f"collected {len(keep)}/{quota} sphere start points off the tube")


# ---------------------------------------------------------------------------
# command implementations; each returns (result, passed)
# ---------------------------------------------------------------------------

def _cmd_info(cfg, germ, warnings):
    r = cfg["radius"]
    return {
        "germ": format_germ(germ),
        "n": germ.n,
        "terms": len(germ.terms),
        "degree": germ.degree,
        "holomorphic": germ.is_holomorphic,
        "scale_at_radius": germ.scale(r),
        "axis_floor": germ.axis_floor(r),
        "f_floor": germ.f_floor(r),
    }, True


def _cmd_dreg(cfg, germ, warnings):
    Q = _resolve_metric(cfg, germ.n)
    rep = d_regularity_search(
        germ, cfg["radius"], Q=Q, budget=cfg["budget"], seed=cfg["seed"],
        polish_runs=cfg["polish"], newton_tol=cfg["newton_tol"])
    return rep, rep.verdict is True


def _cmd_milnor_diag(cfg, germ, warnings):
    if not germ.is_holomorphic:
        raise UsageError("germ", "the phase-colinearity diagnostic needs a "
                                 "holomorphic germ")
    rep = d_regularity_search(
        germ, cfg["radius"], budget=cfg["budget"], seed=cfg["seed"],
        polish_runs=0, newton_tol=cfg["newton_tol"], collect_milnor=True)
    result = {"samples": rep.milnor}
    ok = rep.milnor["violations"] == 0
    if cfg["direction"] is not None:
        d = _resolve_point(cfg, "direction", germ.n)
        radii = [cfg["radius"] * 2.0 ** (-k) for k in range(12)]
        entries = result["radial"] = radial_lambda_scan(germ, d, radii)
        # axis rows (condition_ok None) check nothing; one must be checked
        checked = [e.condition_ok for e in entries
                   if e.condition_ok is not None]
        ok = ok and bool(checked) and all(checked)
    return result, bool(ok)


def _cmd_strong_milnor(cfg, germ, warnings):
    rep = strong_milnor_check(germ, cfg["radius"], budget=cfg["budget"],
                              seed=cfg["seed"],
                              newton_tol=cfg["newton_tol"])
    return rep, rep.verdict is True


def _cmd_tube_check(cfg, germ, warnings):
    eta = _default_eta(cfg, germ)
    if eta >= cfg["radius"]:
        raise UsageError("eta", "eta must be below the sphere radius")
    rep = tube_sphere_transversality(germ, cfg["radius"], eta,
                                     budget=cfg["budget"], seed=cfg["seed"])
    return rep, rep.verdict is True


def _cmd_crit_scan(cfg, germ, warnings):
    rep = critical_value_isolation_scan(germ, cfg["radius"],
                                        budget=cfg["budget"],
                                        seed=cfg["seed"],
                                        newton_tol=cfg["newton_tol"])
    return rep, rep.verdict is True


def _start_points(cfg, germ, quota: int) -> np.ndarray:
    """Complex start points (k, n) of a flow command, the form the flow
    entry points take: --start, else quota points of the theta fiber."""
    if cfg["start"] is not None:
        return to_complex(_resolve_point(cfg, "start", germ.n))[None, :]
    return _fiber_starts(germ, cfg["theta"], cfg["radius"], quota,
                         cfg["seed"], cfg["newton_tol"])


def _above_tube(germ: MixedGerm, x0: np.ndarray, eta: float) -> float:
    """|f| at a tube-flow start, which must lie above the tube level."""
    f0 = abs(complex(evaluate(germ, np.asarray(x0))))
    if f0 <= eta:
        raise UsageError("start", "start point has |f| at or below the tube "
                                  "level")
    return f0


def _cmd_flow(cfg, germ, warnings):
    kind = FLOW_KINDS[cfg["kind"]]
    spec = FlowSpec(kind=kind, rtol=cfg["rtol"], atol=cfg["atol"])
    x0 = _start_points(cfg, germ, 1)[0]
    t0 = cfg["t0"]
    t1 = cfg["t1"]
    eta = None
    if t1 is None:
        if kind is FlowKind.MONODROMY:
            span = TWO_PI * cfg["revolutions"]
        elif kind is FlowKind.RADIAL:
            r0 = float(np.linalg.norm(to_real(x0)))
            span = -0.75 * r0 * r0
        else:
            eta = _default_eta(cfg, germ)
            span = math.log(eta / _above_tube(germ, x0, eta))
        t1 = t0 + span
        if t1 == t0 and span != 0.0:
            # the flow would not move, yet pass as an empty span
            raise UsageError("t0", "t0 + span rounds to t0 for the default "
                             f"span {span!r}")
    if not math.isfinite(t1 - t0):
        # a default t1 overflows only through monodromy's revolutions
        raise UsageError("t1" if cfg["t1"] is not None else "revolutions",
                         "flow span t1 - t0 must be finite")
    trace = integrate(germ, spec, x0, (t0, t1))
    result = {
        "kind": cfg["kind"],
        "start": x0,
        "t0": t0,
        "t1": t1,
        "eta": eta,
        "n_accepted": trace.n_accepted,
        "n_rejected": trace.n_rejected,
        "fallback_steps": trace.fallback_steps,
        "corrected_steps": trace.corrected_steps,
        "max_cond": trace.max_cond,
        "drift": trace.drift,
        "termination": trace.termination,
        "endpoint": trace.points[-1],
        "theta_advance": float(trace.theta[-1] - trace.theta[0]),
    }
    if cfg["out"]:
        path = _out_base(cfg, "pencillab-flow") + ".csv"
        trace.to_csv(path)
        result["csv"] = path
        result["csv_rows"] = trace.n_accepted
    return result, trace.termination in ("completed", "empty-span")


def _cmd_monodromy(cfg, germ, warnings):
    spec = FlowSpec(kind=FlowKind.MONODROMY, rtol=cfg["rtol"],
                    atol=cfg["atol"])
    starts = _start_points(cfg, germ, cfg["count"])
    revolutions = cfg["revolutions"]
    integral = abs(revolutions - round(revolutions)) < 1e-12
    records = []
    for i, z0 in enumerate(starts):
        try:
            records.append(monodromy_return(germ, z0, revolutions=revolutions,
                                            spec=spec))
        except PencilLabError as exc:
            # main writes the finished starts to the .partial report
            exc.inventory = {"failed_start": i, "records": records}
            raise
    ok = not any(r.drift_norm >= 1e-6 * cfg["radius"]
                 or r.drift_absf_rel >= 1e-6
                 or (integral and r.winding != int(round(revolutions)))
                 or r.half_side_flipped is False for r in records)
    result = {
        "revolutions": revolutions,
        "starts": len(starts),
        "max_drift_norm": max([0.0] + [r.drift_norm for r in records]),
        "max_drift_absf_rel": max([0.0] + [r.drift_absf_rel
                                           for r in records]),
        "records": records,
    }
    return result, ok


def _cmd_equivalence(cfg, germ, warnings):
    eta = _default_eta(cfg, germ)
    spec = FlowSpec(kind=FlowKind.TUBE_EQUIVALENCE, rtol=cfg["rtol"],
                    atol=cfg["atol"], max_step=0.25)
    if cfg["start"] is not None:
        starts = _start_points(cfg, germ, 1)
        _above_tube(germ, starts[0], eta)
    else:
        starts = _sphere_starts(germ, cfg["radius"], eta, cfg["count"],
                                cfg["seed"])
    records = equivalence_transport(germ, cfg["radius"], eta, starts,
                                    spec=spec)
    succeeded = sum(1 for r in records if r.success)
    drifts = [abs(r.theta_drift) for r in records if r.success]
    result = {
        "eta": eta,
        "count": len(records),
        "succeeded": succeeded,
        "max_theta_drift": max(drifts) if drifts else None,
        "records": records,
    }
    passed = succeeded == len(records)
    if cfg["out"] and succeeded:
        ends = np.asarray([r.end for r in records if r.success],
                          dtype=complex)
        base = _out_base(cfg, "pencillab-equivalence")
        result["files"] = _emit_cloud(cfg, germ, ends, base, warnings,
                                      surface_test=False)
    return result, passed


def _cmd_euler(cfg, germ, warnings):
    if germ.n != 2:
        raise UsageError("germ", "link Euler counting is implemented for "
                         "n = 2 only")
    inv, chi = link_surface_euler(
        germ, cfg["theta"], cfg["radius"], budget=cfg["budget"],
        seed=cfg["seed"], batch=cfg["batch"],
        stability_batches=cfg["stability"], ell_redraws=cfg["redraws"],
        newton_tol=cfg["newton_tol"])
    return {"chi": chi, "inventory": inv}, True


def _cmd_mu(cfg, germ, warnings):
    exps = cfg["exponents"]
    closed = closed_form_mu(exps)
    try:
        stair = staircase_mu(exps)
    except ValueError as exc:  # the enumeration bound of the exponents
        raise UsageError("exponents", str(exc)) from None
    agree = closed.mu == stair.mu
    return {
        "exponents": list(closed.exponents),
        "closed_form": closed.mu,
        "staircase": stair.mu,
        "agree": agree,
    }, agree


def _cmd_double_check(cfg, germ, warnings):
    try:
        brieskorn_exponents(germ)
    except ValueError as exc:
        raise UsageError("germ", str(exc)) from None
    rep = double_fiber_consistency(
        germ, cfg["theta"], cfg["radius"], budget=cfg["budget"],
        seed=cfg["seed"], batch=cfg["batch"],
        stability_batches=cfg["stability"], ell_redraws=cfg["redraws"],
        newton_tol=cfg["newton_tol"])
    return rep, rep.passed


def _cmd_sample_link(cfg, germ, warnings):
    count = cfg["count"]
    quotas = ((cfg["theta"], (count + 1) // 2),
              ((cfg["theta"] + math.pi) % TWO_PI, count // 2))
    halves = []
    for th, quota in quotas:
        if quota > 0:
            halves.append(_fiber_starts(germ, th, cfg["radius"], quota,
                                        cfg["seed"], cfg["newton_tol"]))
    Z = np.concatenate(halves, axis=0)
    base = _out_base(cfg, "pencillab-link")
    files = _emit_cloud(cfg, germ, Z, base, warnings, surface_test=True)
    result = {
        "theta": cfg["theta"],
        "radius": cfg["radius"],
        "count": len(Z),
        "files": files,
    }
    return result, True


DISPATCH = {
    "info": _cmd_info,
    "dreg": _cmd_dreg,
    "milnor-diag": _cmd_milnor_diag,
    "strong-milnor": _cmd_strong_milnor,
    "tube-check": _cmd_tube_check,
    "crit-scan": _cmd_crit_scan,
    "flow": _cmd_flow,
    "monodromy": _cmd_monodromy,
    "equivalence": _cmd_equivalence,
    "euler": _cmd_euler,
    "mu": _cmd_mu,
    "double-check": _cmd_double_check,
    "sample-link": _cmd_sample_link,
}
COMMANDS = tuple(DISPATCH)
# commands whose Sobol draws are multiples of --count; the others that draw
# any take up to --budget points
COUNT_DRAWS = ("monodromy", "equivalence", "sample-link")


def run_job(cfg: dict, file_vals: Optional[dict],
            overrides: Dict[str, object]) -> Tuple[dict, bool]:
    """Dispatch one validated job; returns (report, passed)."""
    warnings: List[str] = []
    germ = resolve_germ(cfg) if cfg["command"] != "mu" else None
    # every command but info draws Sobol points in up to 2n + 1 dimensions
    if germ is not None and cfg["command"] != "info" \
            and 2 * germ.n + 1 > SOBOL_MAXDIM:
        raise UsageError("n" if cfg["n"] is not None else "germ",
                         f"n = {germ.n} needs Sobol dimension {2 * germ.n + 1}"
                         f" > {SOBOL_MAXDIM}")
    try:
        result, passed = DISPATCH[cfg["command"]](cfg, germ, warnings)
    except SobolCountError as exc:
        raise UsageError("count" if cfg["command"] in COUNT_DRAWS
                         else "budget", str(exc)) from None
    resolved = {k: cfg[k] for k in DEFAULTS}
    resolved["germ"] = format_germ(germ) if germ is not None else None
    resolved["n"] = germ.n if germ is not None else None
    report = {
        "schema": SCHEMA,
        "version": __version__,
        "command": cfg["command"],
        "config": resolved,
        "config_file": file_vals,
        "flag_overrides": overrides,
        "warnings": warnings,
        "passed": bool(passed),
        "result": result,
    }
    return report, bool(passed)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg: dict = {}
    try:
        cfg, file_vals, overrides = load_job(args)
        report, passed = run_job(cfg, file_vals, overrides)
    except UsageError as exc:
        print(f"error: field '{exc.field}': {exc}", file=sys.stderr)
        return 2
    except GermSyntaxError as exc:
        print(f"error: field 'germ': {exc}", file=sys.stderr)
        return 2
    except PencilLabError as exc:
        inv = getattr(exc, "inventory", None)
        if inv is not None:
            base = cfg.get("report") or cfg.get("out") \
                or f"pencillab-{cfg.get('command', 'job')}"
            partial = str(base) + ".partial"
            payload = {
                "schema": SCHEMA,
                "version": __version__,
                "command": cfg.get("command"),
                "error": type(exc).__name__,
                "message": str(exc),
                "inventory": inv,
            }
            try:
                with open(partial, "w") as fh:
                    fh.write(canonical_json(payload) + "\n")
                print(f"partial inventory -> {partial}", file=sys.stderr)
            except OSError as io_exc:
                print(f"error: io: {io_exc}", file=sys.stderr)
        print(f"error: numerical failure ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: field 'config': {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 4

    text = canonical_json(report) + "\n"
    if cfg["report"]:
        try:
            with open(cfg["report"], "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: io: {exc}", file=sys.stderr)
            return 4
        print(f"{cfg['command']}: {'pass' if passed else 'FAIL'} -> "
              f"{cfg['report']}")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
