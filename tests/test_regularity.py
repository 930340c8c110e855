"""Transversality defects, certification searches, and submersion margins."""

import math
import tracemalloc

import numpy as np
import pytest

from pencillab import _num
from pencillab import germ as germ_module
from pencillab._num import (canonical_json, sobol_unit_sphere, to_complex,
                            to_real)
from pencillab.errors import AxisProximity, UsageError
from pencillab.germ import (differential_sample, evaluate, gram_margin,
                            parse_germ, real_gradients)
from pencillab import regularity
from pencillab.regularity import (_colinearity, _defects, _polish,
                                  _smallest_first,
                                  critical_value_isolation_scan,
                                  d_regularity_search, defect_from_directions,
                                  radial_lambda_scan, strong_milnor_check,
                                  tube_sphere_transversality)


def _defect_row(g, z):
    """(defect, axis, degenerate) of the batch defect kernel on one complex
    point z, a one-point column."""
    defect, axis, degenerate, _, _ = _defects(g, to_real(z)[:, None], 0.0)
    return defect[0], axis[0], degenerate[0]


def _colinearity_rows(g, Z):
    """(colinearity, lambda_prime, arg, violated) at the complex rows of Z."""
    X = to_real(Z)
    f, ga, _ = real_gradients(g, X)
    return _colinearity(f, ga.T, X.T)


def test_defect_is_one_for_linear_germ():
    # members of the pencil of f = z1 are flat half-planes through the
    # origin, orthogonal to every sphere
    g = parse_germ("z1", 2)
    rng = np.random.default_rng(0)
    for _ in range(6):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert abs(_defect_row(g, z)[0] - 1.0) < 1e-14


def test_defect_zero_for_radially_tangent_stub():
    # both Re f and Im f are radial functions, so the phase gradient is
    # radial and the member is tangent to the sphere; the defect is zero up
    # to rounding, far below the 1e-9 pass threshold
    g = parse_germ("z1*zbar1 + i*z1^2*zbar1^2", 1)
    assert _defect_row(g, np.array([0.5 + 0.1j]))[0] < 1e-15


def test_defect_degenerate_gradient_stub():
    # f is real, so the phase gradient vanishes: the row is degenerate, not
    # tangent, and its defect reads inf
    g = parse_germ("z1*zbar1 + z2*zbar2", 2)
    defect, axis, degenerate = _defect_row(
        g, np.array([0.3 + 0.1j, 0.2 - 0.4j]))
    assert degenerate and not axis
    assert defect == np.inf


def test_defect_matches_angle_oracle():
    # defect = |sin(angle between grad_theta and the sphere normal)|
    g = parse_germ("z1^2 + z2^3", 2)
    rng = np.random.default_rng(1)
    for _ in range(6):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        x = to_real(z)
        _, _, grad_theta = differential_sample(
            g, x.tolist(), g.axis_floor(float(np.linalg.norm(x))))
        gt = np.array(grad_theta) / np.linalg.norm(grad_theta)
        nx = x / np.linalg.norm(x)
        cosang = float(np.clip(gt @ nx, -1.0, 1.0))
        want = abs(math.cos(math.acos(cosang) - math.pi / 2))
        got = _defect_row(g, z)[0]
        assert abs(got - want) < 1e-12
        assert abs(defect_from_directions(grad_theta, x) - got) < 1e-14


@pytest.mark.parametrize("angle", [1e-9, 1e-10])
def test_defect_resolves_angles_at_the_pass_threshold(angle):
    # the default pass threshold is 1e-9, so a defect of that size must be
    # told apart from a tangency
    normal = np.array([1.0, 0.0, 0.0, 0.0])
    grad = np.array([math.cos(angle), math.sin(angle), 0.0, 0.0])
    assert defect_from_directions(grad, normal) == pytest.approx(
        math.sin(angle), rel=1e-6)


@pytest.mark.parametrize("scan", ["dreg", "crit-scan"])
def test_cover_scans_run_the_germ_kernel_once_per_chunk(monkeypatch, scan):
    # each CHUNK_ROWS-row chunk of the 40000 rows needs f and the first
    # derivatives from one kernel call; the witness is redrawn by index
    # without one. The cover runs the kernel on coordinate-major points
    # through germ.column_gradients, so the calls are counted where every
    # germ pass takes its generated kernel
    monkeypatch.setenv("PENCILLAB_THREADS", "1")
    calls = []
    kernel = germ_module._kernel

    def counted(n, terms, orders):
        calls.append(orders)
        return kernel(n, terms, orders)

    monkeypatch.setattr(germ_module, "_kernel", counted)
    if scan == "dreg":
        d_regularity_search(parse_germ("z1^2 + z2^3", 2), 0.5, budget=40000,
                            polish_runs=0, collect_milnor=True)
    else:
        critical_value_isolation_scan(
            parse_germ("z1^2*zbar2 + z2^2*zbar1", 2), 0.5, budget=40000)
    assert calls == [(0, 1)] * math.ceil(40000 / _num.CHUNK_ROWS)


METRIC_Q = np.array([[2.0, 0.3, 0.0, 0.1],
                     [0.3, 1.0, 0.2, 0.0],
                     [0.0, 0.2, 1.5, 0.0],
                     [0.1, 0.0, 0.0, 1.0]])


def test_cover_reports_do_not_depend_on_chunk_size_or_threads(monkeypatch):
    # two full 8192-row chunks and a 1-row tail at the default chunk size
    budget = 2 * 8192 + 1
    a2a3 = parse_germ("z1^2 + z2^3", 2)
    mixed = parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)
    # n = 3: 6-entry dots, whose two accumulators hold three products each
    g235 = parse_germ("z1^2 + z2^3 + z3^5", 3)
    jobs = {
        "dreg-235": lambda: d_regularity_search(g235, 0.5, budget=budget,
                                                seed=5, polish_runs=30),
        "strong-milnor-235": lambda: strong_milnor_check(
            g235, 0.5, budget=budget, seed=6),
        "dreg": lambda: d_regularity_search(a2a3, 0.5, budget=budget, seed=1,
                                            polish_runs=30),
        "dreg-metric": lambda: d_regularity_search(
            a2a3, 0.5, Q=METRIC_Q, budget=budget, seed=1, polish_runs=30),
        "milnor-diag": lambda: d_regularity_search(
            parse_germ("z1^3 + z1*z2^3", 2), 0.5, budget=budget, seed=2,
            polish_runs=0, collect_milnor=True),
        "strong-milnor": lambda: strong_milnor_check(mixed, 0.5,
                                                     budget=budget, seed=3),
        "crit-scan": lambda: critical_value_isolation_scan(
            mixed, 0.5, budget=budget, seed=4),
    }
    seen = {}
    for rows in (1024, 8192, 2 ** 20):
        monkeypatch.setattr(_num, "CHUNK_ROWS", rows)
        for threads in ("1", "2"):
            monkeypatch.setenv("PENCILLAB_THREADS", threads)
            for name, job in jobs.items():
                seen.setdefault(name, set()).add(canonical_json(job()))
    assert all(len(reports) == 1 for reports in seen.values())


def test_metric_lift_of_a_lone_row_is_its_row_in_a_cover():
    # a witness and a 1-row tail chunk are lifted alone; the lift takes
    # coordinate-major points, and a point is lifted as np.sum sums the
    # products of a row of U with those of L^-T
    lift, _ = regularity._metric_mapper(METRIC_Q, 0.5)
    U = sobol_unit_sphere(0, (1,), 2000, 4)
    whole = lift(U.T)
    Lt = np.linalg.inv(np.linalg.cholesky(METRIC_Q)).T
    rows = 0.5 * np.sum(Lt * U[:, None, :], axis=-1)
    assert whole.T.tobytes() == rows.tobytes()
    for k in range(len(U)):
        assert lift(U[k:k + 1].T).T.tobytes() == whole.T[k:k + 1].tobytes()


def test_cover_memory_stays_within_a_few_chunks(monkeypatch):
    # a streamed cover holds the chunk being scored, with its kernel
    # temporaries, and the chunk being drawn ahead: about 6 MB at 8,192
    # rows. The whole 1e5-row cover held at once peaks at about 27 MB
    monkeypatch.setenv("PENCILLAB_THREADS", "2")
    g = parse_germ("z1^2 + z2^3 + z3^5", 3)
    tracemalloc.start()
    try:
        d_regularity_search(g, 0.5, budget=100000, polish_runs=100,
                            collect_milnor=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_dreg_search_linear_is_exactly_one():
    g = parse_germ("z1", 2)
    rep = d_regularity_search(g, 0.5, budget=2000, seed=0, polish_runs=5)
    assert rep.verdict is True
    assert abs(rep.min_defect - 1.0) < 1e-10
    assert rep.usable > 0


def test_dreg_search_flags_tangency_stub():
    g = parse_germ("z1*zbar1 + i*z1^2*zbar1^2", 1)
    rep = d_regularity_search(g, 0.5, budget=1000, seed=0, polish_runs=0)
    assert rep.verdict is False
    assert rep.min_defect < rep.pass_threshold


def test_dreg_search_deterministic_bytes():
    g = parse_germ("z1^2 + z2^3", 2)
    a = d_regularity_search(g, 0.5, budget=3000, seed=7, polish_runs=3)
    b = d_regularity_search(g, 0.5, budget=3000, seed=7, polish_runs=3)
    assert canonical_json(a) == canonical_json(b)


def test_dreg_histogram_accounts_for_usable():
    g = parse_germ("z1^2 + z2^3", 2)
    rep = d_regularity_search(g, 0.5, budget=2000, seed=3, polish_runs=0)
    assert sum(rep.histogram) == rep.usable


def test_dreg_custom_metric_changes_normal():
    g = parse_germ("z1^2 + z2^3", 2)
    Q = np.diag([1.0, 2.0, 1.0, 2.0])
    rep = d_regularity_search(g, 0.5, Q=Q, budget=1500, seed=2, polish_runs=0)
    assert rep.metric == "custom"
    assert 0.0 < rep.min_defect <= 1.0


def _a2a3_zero_on_the_sphere():
    """A real-layout point of |x| = 0.5 where z1^2 + z2^3 = 0: z2 = -t real,
    z1 = t^1.5, with t^3 + t^2 = 0.25."""
    t = np.roots([1.0, 1.0, 0.0, -0.25])
    t = float(t[np.isreal(t)].real[0])
    return np.array([t ** 1.5, -t, 0.0, 0.0])


def test_smallest_first_is_the_head_of_a_stable_argsort():
    rng = np.random.default_rng(0x5E1EC7)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 0.5, -2.0])
    for trial in range(1200):
        n = int(rng.integers(1, 50))
        # rounded normals give ties; the share of special values cycles
        # through 0, 1/3, 2/3 and 1
        v = np.round(rng.normal(size=n), 1)
        v = np.where(rng.random(n) < trial % 4 / 3, rng.choice(special, n), v)
        full = np.argsort(v, kind="stable")
        for k in range(1, n + 3):
            assert np.array_equal(_smallest_first(v, k), full[:k])


def test_dreg_search_with_more_polish_runs_than_usable_rows(monkeypatch):
    # a cover with two rows on f = 0 (axis, defect inf) and ten copies of
    # one row (tied defects); polish_runs exceeds the usable rows
    g = parse_germ("z1^2 + z2^3", 2)
    U = sobol_unit_sphere(3, (1,), 40, 4)
    U[[5, 17]] = _a2a3_zero_on_the_sphere() / 0.5
    U[20:30] = U[3]

    class Crafted:
        # the cover's draw seam: rows by range and by index
        def __init__(self, *args):
            pass

        def columns(self, start, stop):
            return U[start:stop].T.copy()

        def at(self, index):
            return U[np.asarray(index)]

    monkeypatch.setattr(regularity, "SobolDraw", Crafted)

    def search():
        return d_regularity_search(g, 0.5, budget=40, seed=0,
                                   polish_runs=100)

    rep = search()
    assert rep.axis_excluded == 2 and rep.usable == 38
    # every usable row is a start, and no excluded one
    assert rep.polish_runs == rep.usable
    monkeypatch.setattr(regularity, "_smallest_first",
                        lambda v, k: np.argsort(v, kind="stable")[:k])
    assert canonical_json(rep) == canonical_json(search())


def test_every_search_is_inconclusive_at_budget_zero():
    g = parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)
    reports = [d_regularity_search(g, 0.5, budget=0),
               strong_milnor_check(g, 0.5, budget=0),
               critical_value_isolation_scan(g, 0.5, budget=0),
               tube_sphere_transversality(g, 0.5, 1e-3, budget=0)]
    for rep in reports:
        assert rep.verdict == "inconclusive" and rep.usable == 0
        canonical_json(rep)
    assert reports[2].extra["excluded_fraction"] == 0.0


def _polish_starts(count=100, text="z1^2 + z2^3", n=2):
    g = parse_germ(text, n)
    Y = 0.5 * sobol_unit_sphere(0, (7,), count, 2 * n)
    return g, Y


@pytest.mark.parametrize("Q", [None, METRIC_Q])
def test_polish_start_alone_matches_its_row_in_a_batch(Q):
    g, Y = _polish_starts()
    values, X = _polish(g, Y, 0.5, Q, g.f_floor(0.5))
    for k in (0, 37, 99):
        v1, X1 = _polish(g, Y[k:k + 1], 0.5, Q, g.f_floor(0.5))
        assert v1[0] == values[k]
        assert np.array_equal(X1[0], X[k])


def _sequential_polish(germ, Y0, radius, Q, f_floor):
    """_polish with a sequential Armijo line search, one defect-kernel call
    per halving on the rows still backtracking: the reference that the
    step ladder must reproduce bit for bit."""
    def sphere(Y):
        Y = np.moveaxis(Y, -1, 0)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return radius * Y / np.sqrt(_num.sum_columns(
                Y * regularity._metric_normal(Q, Y)))

    def objective(Y):
        d = _defects(germ, sphere(Y), f_floor, Q)[0]
        return np.where(np.isfinite(d), d, 1.0)

    def gradient(Y):
        E = (regularity._FD_STEP * _num.norm_rows(Y))[:, None, None] \
            * np.eye(Y.shape[1])
        up, down = Y[:, None, :] + E, Y[:, None, :] - E
        F = objective(np.stack([up, down], axis=1))
        with np.errstate(invalid="ignore", divide="ignore"):
            return (F[:, 0] - F[:, 1]) / np.diagonal(up - down, 0, 1, 2)

    def running(g):
        return np.isfinite(g).all(axis=-1) & (
            np.max(np.abs(g), axis=-1) > regularity.POLISH_GTOL)

    eps = np.finfo(float).eps
    Y = np.array(Y0, dtype=float)
    f, g = objective(Y), gradient(Y)
    H = _num.norm_rows(Y)[:, None, None] ** 2 * np.eye(Y.shape[1])
    live = running(g)
    for _ in range(regularity.POLISH_ITER):
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        p = -np.sum(H[idx] * g[idx, None, :], axis=-1)
        slope = 1e-4 * np.sum(g[idx] * p, axis=-1)
        alpha = np.ones(idx.size)
        Yn, fn = Y[idx], f[idx]
        found = np.zeros(idx.size, dtype=bool)
        todo = np.arange(idx.size)
        for _ in range(regularity.POLISH_BACKTRACKS):
            trial = Yn[todo] + alpha[todo, None] * p[todo]
            ft = objective(trial)
            ok = ft <= fn[todo] + np.minimum(alpha[todo] * slope[todo],
                                             -4.0 * eps * fn[todo])
            hit = todo[ok]
            Yn[hit], fn[hit], found[hit] = trial[ok], ft[ok], True
            todo = todo[~ok]
            if todo.size == 0:
                break
            alpha[todo] *= 0.5
        live[idx[~found]] = False
        acc = idx[found]
        if acc.size == 0:
            continue
        gn = gradient(Yn[found])
        H[acc] = regularity._bfgs_update(H[acc], Yn[found] - Y[acc],
                                         gn - g[acc])
        Y[acc], f[acc], g[acc] = Yn[found], fn[found], gn
        live[acc] = running(gn)
    return f, sphere(Y).T


@pytest.mark.parametrize("text,n,Q", [
    ("z1^2 + z2^3", 2, None), ("z1^2 + z2^3", 2, METRIC_Q),
    ("z1^2 + z2^3 + z3^5", 3, None), ("z1^2*zbar2 + z2^2*zbar1", 2, None)],
    ids=["a2a3", "a2a3-metric", "235", "mixed"])
def test_step_ladder_matches_the_sequential_line_search(text, n, Q):
    g, Y = _polish_starts(100, text, n)
    values, X = _polish(g, Y, 0.5, Q, g.f_floor(0.5))
    want, Xw = _sequential_polish(g, Y, 0.5, Q, g.f_floor(0.5))
    assert np.array_equal(values, want)
    assert np.array_equal(X, Xw)


def _counted_polish(monkeypatch, g, Y):
    """_polish of the starts Y with the point shape of every defect-kernel
    call, leading (coordinate) axis dropped."""
    shapes = []
    kernel = regularity._defects

    def counting(germ, X, *args):
        shapes.append(X.shape[1:])
        return kernel(germ, X, *args)

    monkeypatch.setattr(regularity, "_defects", counting)
    return _polish(g, Y, 0.5, None, g.f_floor(0.5)), shapes


def test_polish_makes_at_most_three_kernel_calls_per_iteration(monkeypatch):
    g, Y = _polish_starts()
    _, shapes = _counted_polish(monkeypatch, g, Y)
    # the start's objective and gradient, then per iteration the full step
    # (one point per row), the ladder (11 per row) and the gradient
    assert shapes[:2] == [(100,), (100, 2, 4)]
    iterations = sum(len(s) == 1 for s in shapes) - 1
    ladders = [s for s in shapes if len(s) == 2]
    assert all(s[1] == regularity.POLISH_BACKTRACKS - 1 for s in ladders)
    assert len(shapes) <= 2 + 3 * iterations
    assert (len(shapes), iterations, len(ladders)) == (182, 60, 60)


def test_polish_row_without_a_passing_step_stops_at_its_start(monkeypatch):
    # the defect of z1 is 1 up to rounding: the rows whose difference
    # gradient is not exactly 0 take one iteration, fail all 12 trials and
    # stop there
    g, Y = _polish_starts(text="z1")
    (values, X), shapes = _counted_polish(monkeypatch, g, Y)
    rows = shapes[2][0]
    assert rows > 0
    assert shapes[2:] == [(rows,), (rows, regularity.POLISH_BACKTRACKS - 1)]
    assert np.all(np.abs(values - 1.0) <= 1e-15)
    monkeypatch.setattr(regularity, "POLISH_ITER", 0)
    start_values, start_points = _polish(g, Y, 0.5, None, g.f_floor(0.5))
    assert np.array_equal(values, start_values)
    assert np.array_equal(X, start_points)


def test_polish_bad_starts_fail_only_their_own_rows():
    g, Y = _polish_starts()
    values, X = _polish(g, Y, 0.5, None, g.f_floor(0.5))
    # a start on f = 0 and a NaN start
    axis = _a2a3_zero_on_the_sphere()
    assert abs(evaluate(g, to_complex(axis))) < g.f_floor(0.5)
    mixed = np.vstack([Y[:40], axis, np.full(4, np.nan), Y[40:]])
    v2, X2 = _polish(g, mixed, 0.5, None, g.f_floor(0.5))
    rest = np.r_[0:40, 42:102]
    assert np.array_equal(v2[rest], values)
    assert np.array_equal(X2[rest], X)
    # off the domain reads 1, the largest defect: no improvement
    assert v2[40] == 1.0 and v2[41] == 1.0
    assert not np.isfinite(X2[41]).any()


def test_polished_search_under_a_custom_metric():
    g = parse_germ("z1^2 + z2^3", 2)
    Q = np.diag([1.0, 2.0, 1.0, 2.0])
    cover = d_regularity_search(g, 0.5, Q=Q, budget=2000, seed=2,
                                polish_runs=0)
    rep = d_regularity_search(g, 0.5, Q=Q, budget=2000, seed=2,
                              polish_runs=10)
    assert rep.polish_runs == 10
    x = np.array(rep.witness)
    assert abs(x @ Q @ x - 0.25) <= 1e-12 * 0.25
    assert abs(evaluate(g, to_complex(x))) > g.f_floor(0.5)
    assert rep.min_defect <= cover.min_defect


def test_lambda_diagnostic_closed_form():
    # f = z1^2: lambda' = f * conj(2 z1 * z1) = 2 |z1|^4, argument 0
    g = parse_germ("z1^2", 1)
    Z = np.array([[1.0 + 0.0j], [0.5 * np.exp(0.7j)]])
    colin, lam, arg, violated = _colinearity_rows(g, Z)
    assert abs(lam[0] - 2.0) < 1e-14
    assert abs(arg[0]) < 1e-14
    assert colin[0] < 1e-14
    assert not violated[0]
    assert abs(lam[1] - 2.0 * 0.5 ** 4) < 1e-14


def test_radial_lambda_scan_real_directions():
    g = parse_germ("z1^2 + z2^2", 2)
    radii = [0.5 * 2.0 ** (-k) for k in range(8)]
    # stacked directions with zero imaginary parts
    for d in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]):
        entries = radial_lambda_scan(g, np.array(d + [0.0, 0.0]), radii)
        for e in entries:
            assert e.error is None
            assert abs(e.arg_lambda_prime) < 1e-9


def test_radial_scan_matches_the_pointwise_diagnostic():
    g = parse_germ("z1^3 + z1*z2^3", 2)
    d = np.array([1.0 + 0.25j, 0.5 - 0.3j])
    radii = [0.5 * 2.0 ** (-k) for k in range(12)]
    # each scan row equals the kernel run on that point alone
    for e, t in zip(radial_lambda_scan(g, to_real(d), radii), radii):
        z = t * (d / np.linalg.norm(d))
        colin, _, arg, violated = _colinearity_rows(g, z[None, :])
        assert e.error is None
        assert (e.colinearity, e.arg_lambda_prime, e.condition_ok) == (
            colin[0], arg[0], not violated[0])


@pytest.mark.parametrize("exponent", [1000, -1000])
def test_radial_scan_ignores_the_direction_scale(exponent):
    # a finite direction whose norm overflows (or underflows) is rescaled by
    # a power of two first, which is exact: entries keep their bytes
    g = parse_germ("z1^2 + z2^2", 2)
    radii = [0.5 * 2.0 ** (-k) for k in range(10)]
    d = np.array([2.0, 1.0, 0.0, 0.0])
    entries = radial_lambda_scan(g, d, radii)
    assert all(e.error is None for e in entries)
    ref = [repr(e) for e in entries]
    scaled = np.ldexp(d, exponent)
    assert np.isfinite(scaled).all() and (scaled[:2] != 0).all()
    assert [repr(e) for e in radial_lambda_scan(g, scaled, radii)] == ref


@pytest.mark.parametrize("factor", [0.999, 1.001])
@pytest.mark.parametrize("unit", [1.0, 1j, np.exp(2.0j)],
                         ids=["real", "imaginary", "complex"])
def test_every_axis_test_decides_alike(factor, unit):
    # f = z1 on C^2 has scale(r) = r, so z = (a, 0.5) is an axis point
    # exactly when |a| <= 1e-12 |z|; that floor is 5e-13 to within 1e-24
    # relative, so a 0.1% step puts z clearly on one side
    g = parse_germ("z1", 2)
    z = np.array([factor * 5e-13 * unit, 0.5 + 0.0j])
    axis = factor < 1.0
    assert (abs(z[0]) <= 1e-12 * np.linalg.norm(z)) == axis
    x = to_real(z)
    floor = g.axis_floor(float(np.linalg.norm(x)))
    if axis:
        with pytest.raises(AxisProximity):
            differential_sample(g, x.tolist(), floor)
    else:
        differential_sample(g, x.tolist(), floor)
    [entry] = radial_lambda_scan(g, x, [np.linalg.norm(z)])
    assert (entry.error == AxisProximity.__name__) == axis


def test_radial_scan_reads_the_float_floor_of_each_radius(monkeypatch):
    # an entry is an axis hit by the floor of its own radius, a Python
    # float, whatever numpy's power loops would round on an array of radii
    g = parse_germ("z1^2 + z2^3", 2)
    radii = [0.5 * 0.9 ** k for k in range(40)]
    seen, floor = [], germ_module.MixedGerm.axis_floor
    monkeypatch.setattr(germ_module.MixedGerm, "axis_floor",
                        lambda self, r: seen.append(r) or floor(self, r))
    radial_lambda_scan(g, np.array([1.0, 0.5, 0.2, -0.3]), radii)
    assert seen == radii and all(type(r) is float for r in seen)


def test_witness_is_the_lowest_row_tied_with_the_minimum():
    eps = np.finfo(float).eps
    values = np.array([3.0, 1.0 + 9 * eps, 1.0 + 8 * eps, 2.0, 1.0, 1.0])
    assert regularity._minimum(values) == (1.0, 2)
    assert regularity._minimum(values[3:]) == (1.0, 1)
    assert regularity._minimum(np.array([0.5, 0.0, 0.0])) == (0.0, 1)
    low, k = regularity._minimum(np.array([2.0, np.nan, 1.0]))
    assert math.isnan(low) and k == 1


def test_phase_margin_closed_form_rows():
    # orthogonal rows: second singular value is the smaller row norm
    x = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 2.0, 0.0, 0.0])
    m = gram_margin(x[:, None], v[:, None], uu=1.0)
    assert abs(m[0] - 1.0) < 1e-14


def test_strong_milnor_twisted_pair_is_one():
    # f = z1 * conj(z2): the phase gradient is sphere-tangent with
    # r * |grad_theta| >= 2, so the margin saturates at 1 exactly
    g = parse_germ("z1*zbar2", 2)
    rep = strong_milnor_check(g, 1.0, budget=2000, seed=0)
    assert rep.verdict is True
    assert abs(rep.min_value - 1.0) < 1e-12


def test_strong_milnor_linear_positive():
    g = parse_germ("z1", 2)
    rep = strong_milnor_check(g, 0.5, budget=2000, seed=0)
    assert rep.verdict is True
    assert rep.min_value > 0.5


def test_strong_milnor_constant_phase_margin_zero():
    # phase of f = |z1|^2 is constant, so the restricted map is singular
    g = parse_germ("z1*zbar1", 1)
    rep = strong_milnor_check(g, 1.0, budget=500, seed=0)
    assert rep.verdict is False
    assert rep.min_value == 0.0


def test_tube_sphere_transversality_linear():
    g = parse_germ("z1", 2)
    rep = tube_sphere_transversality(g, 0.5, 0.05, budget=2000, seed=0)
    assert rep.verdict is True
    assert rep.min_value > 0.0


def test_tube_sphere_requires_eta_below_radius():
    g = parse_germ("z1", 2)
    with pytest.raises(ValueError):
        tube_sphere_transversality(g, 0.5, 0.5)
    with pytest.raises(ValueError):
        tube_sphere_transversality(g, 0.5, 0.0)


def test_critical_value_isolation_positive_minima():
    g = parse_germ("z1^2 + z2^3", 2)
    rep = critical_value_isolation_scan(g, 0.5, budget=2000, seed=0)
    assert rep.verdict is True
    assert rep.min_value > 0.0
    g2 = parse_germ("z1*zbar2", 2)
    rep2 = critical_value_isolation_scan(g2, 0.5, budget=2000, seed=0)
    assert rep2.verdict is True
    assert rep2.min_value > 0.0


def test_milnor_tally_needs_a_holomorphic_germ():
    g = parse_germ("z1^2*zbar2 + z2^2*zbar1", 2)
    with pytest.raises(UsageError) as info:
        d_regularity_search(g, 0.5, budget=100, polish_runs=0,
                            collect_milnor=True)
    assert info.value.field == "germ"


def test_milnor_tally_no_violations_for_brieskorn():
    g = parse_germ("z1^2 + z2^3", 2)
    rep = d_regularity_search(g, 0.5, budget=3000, seed=0, polish_runs=0,
                              collect_milnor=True)
    assert rep.milnor is not None
    assert rep.milnor["violations"] == 0
    assert rep.milnor["checked"] > 0
