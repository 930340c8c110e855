"""Span tracer for the per-layer benchmark run.

The tracer wraps module-level functions of the pencillab package at the
layer boundaries listed in SPANS. A wrapper records one span per call
(name, start, end, parent span, job id, rows) and, where the call returns
the program's own work counters, adds them to a counter table. Spans stay
in memory until the run ends.

Every binding of a wrapped function is replaced, in its defining module and
in every module that imported it by name, so calls from any layer are seen.
Only the traced process installs the wrappers, and only around the traced
rounds: the timed run, and the untraced rounds that the traced run compares
against, execute the unmodified code. A boundary whose function no longer exists is recorded as
missing and its metrics read 0; the run does not fail.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("germ", "_num", "pencil", "regularity", "flows", "topology", "cli")

# germ kernels that take a point or a batch of points as second argument
GERM_KERNELS = ("evaluate", "value_and_gradient", "real_gradients",
                "real_hessians", "wirtinger_gradient", "wirtinger_hessian",
                "differential_sample", "jacobian_rank_margin",
                "jacobian_rank_margin_batch")
HESSIAN_KERNELS = ("real_hessians", "wirtinger_hessian")


def _rows_of(z) -> int:
    shape = getattr(z, "shape", None)
    if shape is None:
        return 1
    rows = 1
    for k in shape[:-1]:
        rows *= int(k)
    return rows


def _germ_rows(args, kwargs) -> int:
    z = args[1] if len(args) > 1 else kwargs.get("z", kwargs.get("x"))
    return _rows_of(z)


def _integrate_counts(tr, args, kwargs, out) -> Dict[str, float]:
    return {"flows.integrate.accepted_steps": out.n_accepted,
            "flows.integrate.rejected_steps": out.n_rejected,
            "flows.fallback_steps": out.fallback_steps,
            "flows.corrected_steps": out.corrected_steps}


def _euler_counts(tr, args, kwargs, out) -> Dict[str, float]:
    inv = out[0]
    return {"topology.euler.seeds_used": inv.seeds_used,
            "topology.euler.batches": inv.batches,
            "topology.euler.ell_draws": inv.ell_draws}


def _newton_counts(tr, args, kwargs, out) -> Dict[str, float]:
    return {"topology.newton.rows_in": len(args[4]),
            "topology.newton.rows_converged": int(out[2].sum())}


def _gauss_newton_counts(tr, args, kwargs, out) -> Dict[str, float]:
    ok = out[1]
    return {"_num.gauss_newton.rows": len(ok),
            "_num.gauss_newton.unconverged_rows": int(len(ok) - ok.sum())}


def _sobol_counts(tr, args, kwargs, out) -> Dict[str, float]:
    return {"_num.sobol.points": len(out)}


def _fiber_counts(tr, args, kwargs, out) -> Dict[str, float]:
    requested = args[3] if len(args) > 3 else kwargs["count"]
    return {"pencil.sample_fiber.requested": int(requested),
            "pencil.sample_fiber.returned": out.count}


def _spherefication_counts(tr, args, kwargs, out) -> Dict[str, float]:
    return {"pencil.spherefication.rows": len(out)}


def _dreg_counts(tr, args, kwargs, out) -> Dict[str, float]:
    # the first polish of a search starts at the best cover point, so its
    # starting value is the cover minimum
    cover_min, tr.polish_start = tr.polish_start, None
    if cover_min is not None and cover_min > 0.0:
        tr.polish_gains.append((cover_min - out.min_defect) / cover_min)
    return {"regularity.cover.points": out.samples,
            "regularity.usable": out.usable,
            "regularity.polish.runs": out.polish_runs}


def _scan_counts(tr, args, kwargs, out) -> Dict[str, float]:
    return {"regularity.usable": out.usable}


def _minimize_counts(tr, args, kwargs, out) -> Dict[str, float]:
    if tr.polish_start is None:
        with tr.paused():
            tr.polish_start = float(args[0](args[1]))
    return {"regularity.polish.objective_evals": int(out.nfev)}


# span name -> (module, attribute, counter extractor or None).
# Germ kernels are added below; their rows decide scalar versus batch.
SPANS: Dict[str, Tuple[str, str, Optional[Callable]]] = {
    "_num.sobol_unit_sphere": ("_num", "sobol_unit_sphere", _sobol_counts),
    "_num.sobol_ball": ("_num", "sobol_ball", _sobol_counts),
    "_num.map_chunks": ("_num", "map_chunks", None),
    "_num.gauss_newton": ("_num", "gauss_newton", _gauss_newton_counts),
    "pencil.sample_fiber": ("pencil", "sample_fiber", _fiber_counts),
    "pencil.spherefication_batch": ("pencil", "spherefication_batch",
                                    _spherefication_counts),
    "regularity.d_regularity_search": ("regularity", "d_regularity_search",
                                       _dreg_counts),
    "regularity.strong_milnor_check": ("regularity", "strong_milnor_check",
                                       _scan_counts),
    "regularity.critical_value_isolation_scan": (
        "regularity", "critical_value_isolation_scan", _scan_counts),
    "regularity.tube_sphere_transversality": (
        "regularity", "tube_sphere_transversality", _scan_counts),
    "regularity.polish": ("regularity", "optimize.minimize",
                          _minimize_counts),
    "flows.integrate": ("flows", "integrate", _integrate_counts),
    "flows.synthesize_field": ("flows", "synthesize_field", None),
    "topology.link_surface_euler": ("topology", "link_surface_euler",
                                    _euler_counts),
    "topology._lagrange_newton": ("topology", "_lagrange_newton",
                                  _newton_counts),
    "cli._sphere_starts": ("cli", "_sphere_starts", None),
    "cli._fiber_starts": ("cli", "_fiber_starts", None),
}
for _name in GERM_KERNELS:
    SPANS["germ." + _name] = ("germ", _name, None)


class _AttrProxy:
    """Stands in for a module attribute (scipy.optimize) so that one of its
    functions can be wrapped without touching the foreign module."""

    def __init__(self, target, name: str, fn):
        self._target = target
        setattr(self, name, fn)

    def __getattr__(self, item):
        return getattr(self._target, item)


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.names: List[str] = list(SPANS)
        self.layer_of = [n.split(".", 1)[0] for n in self.names]
        # one row per span: name id, start, end, parent index, job, rows
        self.spans: List[Tuple[int, float, float, int, int, int]] = []
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        self.polish_start: Optional[float] = None
        self.polish_gains: List[float] = []
        self.job = -1
        self._paused = False
        self._local = threading.local()
        self._pool_parent = -1
        self._lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        mods = {}
        for layer in LAYERS:
            try:
                mods[layer] = importlib.import_module(f"pencillab.{layer}")
            except ImportError:
                continue
        return mods

    def install(self) -> None:
        mods = self._modules()
        self.missing = []
        for sid, name in enumerate(self.names):
            layer, attr, extract = SPANS[name]
            owner = mods.get(layer)
            if owner is None:
                self.missing.append(name)
                continue
            if "." in attr:
                self._install_proxy(sid, owner, attr, extract)
                continue
            original = getattr(owner, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            wrapper = self._wrap(sid, original, extract)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, key, val))
                        setattr(mod, key, wrapper)

    def _install_proxy(self, sid, owner, attr, extract) -> None:
        holder_name, fn_name = attr.split(".", 1)
        holder = getattr(owner, holder_name, None)
        original = getattr(holder, fn_name, None)
        if not callable(original):
            self.missing.append(self.names[sid])
            return
        proxy = _AttrProxy(holder, fn_name,
                           self._wrap(sid, original, extract))
        self._restore.append((owner, holder_name, holder))
        setattr(owner, holder_name, proxy)

    def uninstall(self) -> None:
        for mod, key, val in reversed(self._restore):
            setattr(mod, key, val)
        self._restore.clear()

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, sid: int, fn, extract):
        is_germ = self.layer_of[sid] == "germ"
        is_pool = self.names[sid] == "_num.map_chunks"
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            # worker threads of map_chunks start with an empty stack; their
            # spans belong to the map_chunks call that started them
            parent = stack[-1] if stack else self._pool_parent
            rows = _germ_rows(args, kwargs) if is_germ else 0
            with self._lock:
                idx = len(spans)
                spans.append((sid, 0.0, 0.0, parent, self.job, rows))
            stack.append(idx)
            if is_pool:
                self._pool_parent = idx
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.count({self.names[sid] + ".failed": 1})
                raise
            finally:
                t1 = clock()
                stack.pop()
                if is_pool:
                    self._pool_parent = -1
                spans[idx] = (sid, t0, t1, parent, self.job, rows)
            if extract is not None:
                self.count(extract(self, args, kwargs, out))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", self.names[sid])
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Run program code without recording spans (benchmark-side probes)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count(self, values: Dict[str, float]) -> None:
        with self._lock:
            for k, v in values.items():
                self.counters[k] = self.counters.get(k, 0) + v

    # -- output -----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one CSV row (gzip)."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent,job,rows\n")
            for i, (sid, t0, t1, parent, job, rows) in enumerate(self.spans):
                fh.write(f"{i},{self.names[sid]},{t0!r},{t1!r},{parent},"
                         f"{job},{rows}\n")

    def self_time(self, name: str) -> float:
        """Summed self time of spans with this name: duration minus the
        union of the intervals covered by their child spans."""
        sid = self.names.index(name)
        children: Dict[int, List[Tuple[float, float]]] = {}
        for i, (s, t0, t1, parent, _, _) in enumerate(self.spans):
            if parent >= 0 and self.spans[parent][0] == sid:
                children.setdefault(parent, []).append((t0, t1))
        total = 0.0
        for i, (s, t0, t1, _, _, _) in enumerate(self.spans):
            if s != sid:
                continue
            covered, end = 0.0, t0
            for c0, c1 in sorted(children.get(i, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            total += (t1 - t0) - covered
        return total

    def metrics(self) -> Dict[str, float]:
        """Aggregate spans and counters into the per-layer metrics."""
        busy: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        germ_sid = {i for i, l in enumerate(self.layer_of) if l == "germ"}
        hess_sid = {self.names.index("germ." + k) for k in HESSIAN_KERNELS}
        g = {"scalar_calls": 0, "scalar_s": 0.0, "batch_rows": 0,
             "batch_s": 0.0, "hess_rows": 0, "hess_s": 0.0}
        for sid, t0, t1, parent, _, rows in self.spans:
            name = self.names[sid]
            dt = t1 - t0
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dt
            if sid not in germ_sid:
                continue
            if parent >= 0 and self.spans[parent][0] in germ_sid:
                continue  # counted at the outermost germ call only
            if sid in hess_sid:
                g["hess_rows"] += rows
                g["hess_s"] += dt
            elif rows <= 1:
                g["scalar_calls"] += 1
                g["scalar_s"] += dt
            else:
                g["batch_rows"] += rows
                g["batch_s"] += dt
        c = self.counters.get

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        polish_s = busy.get("regularity.polish", 0.0)
        steps = c("flows.integrate.accepted_steps", 0)
        field_calls = calls.get("flows.synthesize_field", 0)
        out = {
            "germ.scalar.calls": g["scalar_calls"],
            "germ.scalar.us_per_call": ratio(g["scalar_s"],
                                             g["scalar_calls"], 1e6),
            "germ.batch.rows": g["batch_rows"],
            "germ.batch.ns_per_row": ratio(g["batch_s"], g["batch_rows"],
                                           1e9),
            "germ.hessian.rows": g["hess_rows"],
            "germ.hessian.busy_s": g["hess_s"],
            "num.sobol.points": c("_num.sobol.points", 0),
            "num.sobol.busy_s": busy.get("_num.sobol_unit_sphere", 0.0)
            + busy.get("_num.sobol_ball", 0.0),
            "num.map_chunks.busy_s": busy.get("_num.map_chunks", 0.0),
            "num.gauss_newton.calls": calls.get("_num.gauss_newton", 0),
            "num.gauss_newton.rows": c("_num.gauss_newton.rows", 0),
            "num.gauss_newton.busy_s": busy.get("_num.gauss_newton", 0.0),
            "num.gauss_newton.unconverged_rows":
                c("_num.gauss_newton.unconverged_rows", 0),
            "pencil.sample_fiber.requested":
                c("pencil.sample_fiber.requested", 0),
            "pencil.sample_fiber.returned":
                c("pencil.sample_fiber.returned", 0),
            "pencil.sample_fiber.busy_s": busy.get("pencil.sample_fiber",
                                                   0.0),
            "pencil.spherefication.rows": c("pencil.spherefication.rows", 0),
            "pencil.spherefication.busy_s":
                busy.get("pencil.spherefication_batch", 0.0),
            "regularity.cover.points": c("regularity.cover.points", 0),
            "regularity.cover.busy_s":
                busy.get("regularity.d_regularity_search", 0.0) - polish_s,
            "regularity.usable": c("regularity.usable", 0),
            "regularity.polish.runs": c("regularity.polish.runs", 0),
            "regularity.polish.objective_evals":
                c("regularity.polish.objective_evals", 0),
            "regularity.polish.busy_s": polish_s,
            "regularity.polish.min_gain": max(self.polish_gains, default=0.0),
            "regularity.scan.busy_s": sum(busy.get(k, 0.0) for k in (
                "regularity.strong_milnor_check",
                "regularity.critical_value_isolation_scan",
                "regularity.tube_sphere_transversality")),
            "flows.integrate.calls": calls.get("flows.integrate", 0),
            "flows.integrate.accepted_steps": steps,
            "flows.integrate.rejected_steps":
                c("flows.integrate.rejected_steps", 0),
            "flows.integrate.us_per_step": ratio(
                busy.get("flows.integrate", 0.0), steps, 1e6),
            "flows.integrate.failed": c("flows.integrate.failed", 0),
            "flows.field.calls": field_calls,
            "flows.field.us_per_call": ratio(
                busy.get("flows.synthesize_field", 0.0), field_calls, 1e6),
            "flows.field.calls_per_step": ratio(field_calls, steps),
            "flows.fallback_steps": c("flows.fallback_steps", 0),
            "flows.corrected_steps": c("flows.corrected_steps", 0),
            "topology.euler.calls": calls.get("topology.link_surface_euler",
                                              0),
            "topology.euler.seeds_used": c("topology.euler.seeds_used", 0),
            "topology.euler.batches": c("topology.euler.batches", 0),
            "topology.euler.ell_draws": c("topology.euler.ell_draws", 0),
            "topology.newton.rows_in": c("topology.newton.rows_in", 0),
            "topology.newton.rows_converged":
                c("topology.newton.rows_converged", 0),
            "topology.newton.busy_s": busy.get("topology._lagrange_newton",
                                               0.0),
            "topology.classify.self_s":
                self.self_time("topology.link_surface_euler"),
            "cli.starts.busy_s": busy.get("cli._sphere_starts", 0.0)
            + busy.get("cli._fiber_starts", 0.0),
            "trace.spans": len(self.spans),
            "trace.missing": len(self.missing),
        }
        return out

