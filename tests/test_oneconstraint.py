import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qcqp.core import QuadraticForm, evaluate
from qcqp.errors import InfeasibleConstraintError, QcqpError
from qcqp.generators import gen_beamforming
from qcqp.onevar import _stable_roots
from qcqp.oneconstraint import (
    ConstraintProjector,
    OneConstraintStatus,
    project_eq,
    project_ineq,
    solve_interval,
    solve_one_constraint,
)


def secular_reference(proj: ConstraintProjector, zhat: np.ndarray) -> float | None:
    """Reference root of the secular equation: a scalar march, 200-step bisection, Newton polish."""

    def march(start, bound, direction):
        phi_start = proj._phi(start, zhat)
        prev = start
        for k in range(1, 200):
            if math.isfinite(bound):
                t = bound - (bound - start) * 0.5**k
            else:
                t = start + direction * (2.0 ** (k - 14)) * (1.0 + abs(start))
            phi_t = proj._phi(t, zhat)
            if (phi_start > 0.0 > phi_t) or (phi_start < 0.0 < phi_t):
                return (prev, t) if direction > 0 else (t, prev)
            prev = t
            if math.isfinite(bound) and abs(bound - t) < 1e-15 * (1.0 + abs(bound)):
                break
        return None

    lo_b, hi_b = proj._nu_bounds()
    phi0 = proj._phi(0.0, zhat)
    if phi0 == 0.0:
        return 0.0
    bracket = march(0.0, hi_b, +1) if phi0 > 0.0 else march(0.0, lo_b, -1)
    if bracket is None:
        return None
    lo, hi = bracket
    if proj._phi(lo, zhat) < proj._phi(hi, zhat):
        lo, hi = hi, lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if proj._phi(mid, zhat) > 0.0:
            lo = mid
        else:
            hi = mid
        if abs(hi - lo) <= 1e-13 * (1.0 + abs(lo) + abs(hi)):
            break
    nu = 0.5 * (lo + hi)
    for _ in range(8):
        f = proj._phi(nu, zhat)
        fp = proj._phi_prime(nu, zhat)
        if fp == 0.0:
            break
        step = f / fp
        nu_new = nu - step
        if not (min(lo, hi) - 1e-9 <= nu_new <= max(lo, hi) + 1e-9):
            break
        nu = nu_new
        if abs(step) <= 1e-16 * (1.0 + abs(nu)):
            break
    return nu


def mixed_sign_cases(seed: int, count: int):
    """(projector, z) pairs from the acceptance-02 generator: mixed-sign spectra, n = 2..20."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        n = int(rng.integers(2, 21))
        w = np.sort(rng.standard_normal(n) * 2.0)
        if w[0] > -0.05 or w[-1] < 0.05:
            continue
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        form = QuadraticForm.from_dense((V * w) @ V.T, rng.standard_normal(n), float(rng.standard_normal()))
        proj = ConstraintProjector(form)
        lo, hi = proj.feas_range
        if not (lo <= 0.0 <= hi):
            continue
        cases.append((proj, rng.standard_normal(n) * 2.0))
    return cases


def circle(n=2, radius=1.0):
    return QuadraticForm.from_dense(np.eye(n), None, -radius * radius)


def test_project_onto_circle_closed_form():
    # projecting (2, 0) onto the unit circle gives (1, 0) with nu = 1
    res = project_eq([2.0, 0.0], circle())
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-10)
    assert res.nu == pytest.approx(1.0, abs=1e-9)
    assert res.kkt_residual <= 1e-9


def test_project_origin_onto_circle_hard_case():
    # the center is equidistant from the whole circle: any unit point is optimal
    res = project_eq([0.0, 0.0], circle())
    assert np.linalg.norm(res.x) == pytest.approx(1.0, abs=1e-9)


def test_project_onto_hyperbola():
    # x^2 - y^2 = 1 from the origin: nearest points are (+-1, 0)
    form = QuadraticForm.from_dense(np.diag([1.0, -1.0]), None, -1.0)
    res = project_eq([0.0, 0.0], form)
    assert abs(res.x[0]) == pytest.approx(1.0, abs=1e-8)
    assert res.x[1] == pytest.approx(0.0, abs=1e-8)


def test_project_ineq_feasible_is_identity():
    res = project_ineq([0.3, 0.1], circle())
    assert np.allclose(res.x, [0.3, 0.1])
    assert res.nu == 0.0 and res.kkt_residual == 0.0


def test_project_affine_closed_form():
    # half-space x1 + x2 - 1 <= 0
    form = QuadraticForm.create(2, (), [1.0, 1.0], -1.0)
    res = project_ineq([2.0, 2.0], form)
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-12)


def test_project_infeasible_equality():
    # x^2 + 1 = 0 has no real solutions
    form = QuadraticForm.from_dense(np.eye(2), None, 1.0)
    with pytest.raises(InfeasibleConstraintError):
        project_eq([0.0, 0.0], form)


@pytest.mark.parametrize(
    "P, z",
    [([[1.0]], [1.0]), (np.eye(2), [1.0, 0.5]), (-np.eye(2), [1.0, 0.5])],
    ids=["x^2", "norm^2", "-norm^2"],
)
def test_project_onto_single_point_where_gradient_vanishes(P, z):
    # {f = 0} = {0} is the minimizer (maximizer) of f; no multiplier exists there
    res = project_eq(z, QuadraticForm.from_dense(P))
    assert np.array_equal(res.x, np.zeros(len(z)))
    assert math.isinf(res.nu)
    assert res.kkt_residual == 0.0


def test_project_onto_flat_minimizer_set():
    # f = (x1 + x2 - 1)^2: {f = 0} is the line x1 + x2 = 1, where grad f = 0
    form = QuadraticForm.from_dense(np.ones((2, 2)), [-2.0, -2.0], 1.0)
    res = project_eq([2.0, 1.0], form)
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-12)
    assert res.kkt_residual <= 1e-12


def test_support_reduction_leaves_other_coordinates():
    # the constraint only touches x0; x1 must pass through untouched
    form = QuadraticForm.create(2, [(0, 0, 1.0)], None, -4.0)
    res = project_eq([5.0, -3.25], form)
    assert res.x[1] == -3.25
    assert abs(res.x[0]) == pytest.approx(2.0, abs=1e-10)


def test_project_center_of_off_origin_circle_hard_case():
    # every point of the circle ||x - c|| = 1 is nearest its center c != 0
    c = np.array([3.0, 4.0])
    form = QuadraticForm.from_dense(np.eye(2), -2.0 * c, float(c @ c) - 1.0)
    res = project_eq(c, form)
    assert np.linalg.norm(res.x - c) == pytest.approx(1.0, abs=1e-12)
    assert res.kkt_residual <= 1e-12


def test_project_onto_coverage_row_with_rounding_level_eigenvalues():
    # the coverage row tau - (a'x)^2 - (b'x)^2 <= 0 has rank 2 in R^4, so two
    # eigenvalues of P are zero up to rounding; the nearest point to 0 is
    # along the top eigenvector of -P, at distance sqrt(tau / lambda_max)
    form = gen_beamforming(2, 1, 1, tau=20.0, eta=1e9, seed=0).constraints[0].form
    res = project_eq(np.zeros(4), form)
    lmax = float(np.linalg.eigvalsh(-form.dense_p)[-1])
    assert np.linalg.norm(res.x) == pytest.approx(math.sqrt(20.0 / lmax), rel=1e-12)
    assert res.kkt_residual <= 1e-9


@pytest.mark.parametrize("tiny", [-1e-32, -1e-100])
def test_project_with_rounding_level_negative_eigenvalue(tiny):
    # lambda = tiny puts the multiplier bound -1/tiny near 1e32 or beyond:
    # the bracket from the march must still shrink onto the root near 12
    exact = QuadraticForm.from_dense(np.diag([0.0, 3.0, 4.0]), [1.0, 1.0, 1.0], 1.0)
    form = QuadraticForm.from_dense(np.diag([tiny, 3.0, 4.0]), [1.0, 1.0, 1.0], 1.0)
    res = project_eq([5.0, 5.0, 5.0], form)
    assert res.kkt_residual <= 1e-12
    assert np.allclose(res.x, project_eq([5.0, 5.0, 5.0], exact).x, rtol=1e-12, atol=1e-12)


def test_projector_kkt_random_suite():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 12))
        w = rng.standard_normal(n) * 2.0
        V = np.linalg.qr(rng.standard_normal((n, n)))[0]
        P = (V * w) @ V.T
        form = QuadraticForm.from_dense(P, rng.standard_normal(n), rng.standard_normal())
        proj = ConstraintProjector(form)
        lo, hi = proj.feas_range
        if not (lo <= 0.0 <= hi):
            continue
        z = rng.standard_normal(n) * 3.0
        res = proj.project_eq(z)
        assert res.kkt_residual <= 1e-7 * (1.0 + np.linalg.norm(z))
        assert abs(evaluate(form, res.x)) <= 1e-6 * proj.scale


def test_secular_phi_monotone():
    # phi is strictly decreasing in nu on the admissible interval
    rng = np.random.default_rng(4)
    form = QuadraticForm.from_dense(np.diag([2.0, -1.0]), [0.3, -0.7], -0.5)
    proj = ConstraintProjector(form)
    z = proj._rotate(rng.standard_normal(2))
    lo, hi = proj._nu_bounds()
    nus = np.linspace(lo + 1e-3, hi - 1e-3, 100)
    vals = [proj._phi(nu, z) for nu in nus]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_newton_secular_matches_bisection_reference():
    checked = 0
    for proj, z in mixed_sign_cases(202, 300):
        zhat = proj._rotate(z)
        nu_ref = secular_reference(proj, zhat)
        if nu_ref is None:
            continue  # hard case: both paths take _hard_case
        res = proj.project_eq(z)
        x_ref = proj._unrotate(proj._xhat(nu_ref, zhat))
        assert abs(res.nu - nu_ref) <= 1e-10 * (1.0 + abs(nu_ref))
        assert np.linalg.norm(res.x - x_ref) <= 1e-10 * (1.0 + np.linalg.norm(x_ref))
        checked += 1
    assert checked > 250


def test_newton_secular_phi_evaluations_per_projection(monkeypatch):
    # every phi, phi' and batched march evaluation counts as one; the
    # bisection reference needs ~50 per projection on these cases
    calls = [0]
    for name in ("_phi", "_phi_prime", "_phi_many"):
        method = getattr(ConstraintProjector, name)

        def counted(self, *args, method=method):
            calls[0] += 1
            return method(self, *args)

        monkeypatch.setattr(ConstraintProjector, name, counted)
    per_projection = []
    for proj, z in mixed_sign_cases(202, 200):
        before = calls[0]
        proj.project_eq(z)
        per_projection.append(calls[0] - before)
    assert max(per_projection) <= 20
    assert sum(per_projection) <= 13 * len(per_projection)


# -- one-variable supports: the nearest root in closed form -----------------

coefficient = st.floats(-10.0, 10.0, allow_nan=False)
curvature = st.floats(0.1, 10.0).flatmap(lambda p: st.sampled_from([p, -p]))


def one_variable(p, q, r, at=0, n=1):
    """p x_at^2 + q x_at + r as a form on n variables."""
    q_vec = np.zeros(n)
    q_vec[at] = q
    return QuadraticForm.create(n, [(at, at, p)], q_vec, r)


def clear_roots(p, q, r, z):
    """The two roots of p t^2 + q t + r, assuming they are apart and z is nearer one of them."""
    assume(q * q - 4.0 * p * r > 1e-6)
    a, b = _stable_roots(p, q, r)
    assume(b - a > 1e-3)
    assume(abs(abs(z - a) - abs(z - b)) > 1e-6 * (b - a))
    return a, b


@given(curvature, coefficient, coefficient, coefficient)
def test_one_variable_projection_is_nearest_root(p, q, r, z):
    a, b = clear_roots(p, q, r, z)
    proj = ConstraintProjector(one_variable(p, q, r))
    res = proj.project_eq([z])
    nearest = a if abs(z - a) < abs(z - b) else b
    assert res.x[0] == pytest.approx(nearest, rel=1e-12, abs=1e-12)
    assert res.kkt_residual <= 1e-9 * proj.scale


@given(
    st.integers(-3, 3),
    st.sampled_from([1.0, -1.0]),
    st.integers(-20, 20),
    st.integers(1, 20),
    st.floats(-5.0, 5.0, allow_nan=False),
)
def test_one_variable_tie_takes_lower_root(k, sign, a, gap, other):
    # roots a < b and a dyadic curvature make the midpoint an exact tie
    p, b = sign * 2.0**k, a + gap
    form = one_variable(p, -p * (a + b), p * a * b, at=1, n=3)
    res = ConstraintProjector(form).project_eq([other, 0.5 * (a + b), -other])
    assert res.x[1] == a
    assert res.x[0] == other and res.x[2] == -other


@given(curvature, coefficient, coefficient, coefficient)
def test_one_variable_kkt_residual_is_small(p, q, r, z):
    assume(q * q - 4.0 * p * r >= 0.0)
    proj = ConstraintProjector(one_variable(p, q, r))
    res = proj.project_eq([z])
    assert res.kkt_residual <= 1e-9 * proj.scale


@given(curvature, coefficient, coefficient, coefficient)
def test_one_variable_ineq_keeps_feasible_point(p, q, r, z):
    form = one_variable(p, q, r)
    assume(evaluate(form, np.array([z])) <= 0.0)
    res = ConstraintProjector(form).project_ineq([z])
    assert res.x[0] == z and res.nu == 0.0


@given(curvature, coefficient, coefficient, coefficient)
def test_one_variable_closed_form_matches_secular_path(p, q, r, z):
    clear_roots(p, q, r, z)
    proj = ConstraintProjector(one_variable(p, q, r))
    closed = proj.project_eq([z])
    with mock.patch.object(ConstraintProjector, "_nearest_root", return_value=None):
        general = proj.project_eq([z])
    assert abs(closed.x[0] - general.x[0]) <= 1e-12 * (1.0 + abs(general.x[0]))
    assert abs(closed.nu - general.nu) <= 1e-12 * (1.0 + abs(general.nu))


def project_or_error(proj: ConstraintProjector, z, equality=True):
    """proj.project(z, equality), or the type of the error it raises."""
    try:
        return proj.project(z, equality)
    except QcqpError as exc:
        return type(exc)


def same_float(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or np.float64(a).tobytes() == np.float64(b).tobytes()


@given(curvature, coefficient, coefficient, coefficient, st.integers(0, 2))
def test_one_variable_support_projects_as_its_restriction(p, q, r, z, at):
    # a form on x_at alone projects in closed form; x, nu and kkt_residual
    # (computed in all three coordinates) must be those of the restriction,
    # and so must an error
    zs = np.array([1.5, -2.25, 0.75])
    zs[at] = z
    got = project_or_error(ConstraintProjector(one_variable(p, q, r, at=at, n=3)), zs)
    want = project_or_error(ConstraintProjector(one_variable(p, q, r)), zs[at : at + 1])
    if isinstance(want, type):
        assert got is want
        return
    x = zs.copy()
    x[at] = want.x[0]
    assert got.x.tobytes() == x.tobytes()
    assert same_float(got.nu, want.nu)
    assert same_float(got.kkt_residual, want.kkt_residual)


@st.composite
def partial_support_form(draw):
    """A form on n = 5 with P on 1 to 3 variables (dense, diagonal or zero) and q on the same ones."""
    s = np.array(sorted(draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))))
    k = s.size
    B = np.array(draw(st.lists(coefficient, min_size=k * k, max_size=k * k))).reshape(k, k)
    B = draw(st.sampled_from([B, np.diag(np.diag(B)), 0.0 * B]))
    P = np.zeros((5, 5))
    P[np.ix_(s, s)] = B + B.T
    q = np.zeros(5)
    q[s] = draw(st.lists(coefficient, min_size=k, max_size=k))
    return QuadraticForm.from_dense(P, q, draw(coefficient))


@given(partial_support_form(), st.lists(coefficient, min_size=5, max_size=5))
def test_support_projects_as_its_restriction(form, zs):
    # a projector works in its support's coordinates: on a form touching 1
    # to 3 of 5 variables, x and nu must be those of the restriction's
    # projector on z[support], byte for byte, and so must an error
    s = form.support
    assume(s.size > 0)
    proj = ConstraintProjector(form)
    restricted = ConstraintProjector(QuadraticForm._of_symmetric(form.dense_p[np.ix_(s, s)], form.q_vec[s], form.r))
    z = np.array(zs)
    for equality in (True, False):
        got, want = project_or_error(proj, z, equality), project_or_error(restricted, z[s], equality)
        if isinstance(want, type):
            assert got is want
            continue
        x = z.copy()
        x[s] = want.x
        assert got.x.tobytes() == x.tobytes()
        assert same_float(got.nu, want.nu)


@pytest.mark.parametrize(
    "p, q, r, z",
    [
        (1.0, 0.0, 0.0, 1.0),  # x^2 = 0: a double root where grad f = 0
        (-2.0, 0.0, 0.0, -3.0),
        (1.0, -2.0, 1.0, 0.5),  # (x - 1)^2 = 0
        (1.0, 0.0, -4.0, 0.0),  # a tie between the roots -2 and 2
    ],
)
def test_one_variable_support_falls_back_to_its_restriction(p, q, r, z):
    # where the closed form gives no KKT point (or is bypassed), the general
    # path on the support answers, exactly as for the restriction alone
    form = one_variable(p, q, r, at=2, n=4)
    zs = np.array([0.25, -1.0, z, 3.0])
    for bypass in (False, True):
        with mock.patch.object(ConstraintProjector, "_nearest_root", return_value=None) if bypass else mock.MagicMock():
            got = ConstraintProjector(form).project_eq(zs)
            want = ConstraintProjector(one_variable(p, q, r)).project_eq([z])
        assert got.x.tobytes() == np.array([0.25, -1.0, want.x[0], 3.0]).tobytes()
        assert same_float(got.nu, want.nu)
        assert same_float(got.kkt_residual, want.kkt_residual)


def nearest_root_reference(proj: ConstraintProjector, zi: float) -> tuple[float, float] | None:
    """The one-variable closed form worked through in full on every call: roots, then the nearer one's nu."""
    lam, qh = float(proj.lam[0]), float(proj.qhat[0])
    roots = _stable_roots(lam, qh, proj.r)
    if roots is None:
        return None
    lo, hi = roots
    x = hi if abs(hi - zi) < abs(lo - zi) else lo
    grad = 2.0 * lam * x + qh
    if grad == 0.0:
        return None
    nu = -2.0 * (x - zi) / grad
    if 1.0 + nu * lam <= 0.0:
        return None
    return x, nu


def test_one_variable_projection_matches_the_closed_form_bit_for_bit():
    # the projector computes its roots and their gradients once; x and nu
    # must be those of the formula worked through on each call: a of both
    # signs, b = 0 and b != 0, two, one or no real roots, and z_i at the
    # midpoint of the roots, at a root and at random
    rng = np.random.default_rng(20)
    cases = closed = 0
    for _ in range(400):
        a = float(rng.choice([1.0, -1.0, 2.5, -0.3])) * float(rng.choice([1.0, rng.uniform(0.5, 2.0)]))
        b = float(rng.choice([0.0, rng.standard_normal()]))
        centre = b * b / (4.0 * a)  # a t^2 + b t + centre has the double root -b / (2a)
        r = centre + float(rng.choice([-1.0, 0.0, 1.0])) * a * float(rng.uniform(0.1, 4.0))
        at, n = (0, 1) if rng.random() < 0.5 else (1, 3)
        proj = ConstraintProjector(one_variable(a, b, r, at=at, n=n))
        roots = _stable_roots(a, b, r)
        picks = [float(rng.standard_normal())] + ([0.5 * (roots[0] + roots[1]), roots[1]] if roots else [])
        for zi in picks:
            z = rng.standard_normal(n)
            z[at] = zi
            got = project_or_error(proj, z)
            if isinstance(got, type):
                assert roots is None and got is InfeasibleConstraintError
                continue
            cases += 1
            want = nearest_root_reference(proj, zi)
            if want is None:  # the general path answers, as it did
                with mock.patch.object(ConstraintProjector, "_nearest_root", return_value=None):
                    general = proj.project_eq(z)
                assert got.x.tobytes() == general.x.tobytes() and same_float(got.nu, general.nu)
                continue
            closed += 1
            x = z.copy()
            x[at] = want[0]
            assert got.x.tobytes() == x.tobytes()
            assert same_float(got.nu, want[1])
    assert closed > 300 and cases > closed


@given(curvature, coefficient, st.floats(0.1, 10.0), coefficient)
def test_one_variable_support_without_real_root_is_infeasible(p, q, gap, z):
    # p x^2 + q x + r keeps the sign of p by at least gap: {f = 0} is empty
    r = q * q / (4.0 * p) + math.copysign(gap, p)
    proj = ConstraintProjector(one_variable(p, q, r, at=1, n=2))
    with pytest.raises(InfeasibleConstraintError):
        proj.project_eq([0.5, z])


def kkt_rule(form: QuadraticForm, z, x, nu: float, equality: bool) -> float:
    """max(|2 (x - z) + nu grad f(x)|, |f(x)|); |grad f(x)| for an infinite nu, max(f(x), 0) for an inequality."""
    grad = form.gradient(x)
    stat = float(np.linalg.norm(grad if math.isinf(nu) else 2.0 * (x - np.asarray(z, dtype=float)) + nu * grad))
    f = evaluate(form, x)
    return max(stat, abs(f) if equality else max(f, 0.0))


@pytest.mark.parametrize(
    "form, z, equality",
    [
        (one_variable(1.0, 0.5, -4.0, at=1, n=3), [0.3, 1.5, -2.0], True),  # closed form on x_1
        (QuadraticForm.create(2, (), None, 1e-12), [0.3, -0.7], True),  # q = 0, r within FEAS_TOL
        (QuadraticForm.create(3, (), [-0.298, -0.53, -0.236], 1.816), [-0.149, 0.26, -4.461], True),  # affine
        (circle(), [2.0, 0.5], True),  # secular
        (circle(), [0.0, 0.0], True),  # hard case at nu = -1
        (QuadraticForm.from_dense(-np.eye(2)), [1.0, 0.5], True),  # extremum, nu = -inf
        (circle(), [0.3, 0.1], False),  # feasible LE: z itself
        (circle(), [2.0, 0.5], False),  # infeasible LE: the equality's point
    ],
    ids=["closed-form", "q=0", "affine", "secular", "hard-case", "extremum", "feasible-le", "infeasible-le"],
)
def test_kkt_residual_follows_one_rule_on_every_path(form, z, equality):
    # on the affine path the rule's stationarity part is a rounding residue
    # (8.9e-16) above |f(x)| = 0, so an |f(x)| alone would differ there
    res = ConstraintProjector(form).project(z, equality)
    feasible_le = not equality and evaluate(form, z) <= 0.0
    assert same_float(res.kkt_residual, kkt_rule(form, z, res.x, res.nu, equality or not feasible_le))
    assert res.kkt_residual <= 1e-9


def test_solve_one_constraint_inactive():
    # min ||x - (0.2, 0)||^2 inside the unit disk: unconstrained optimum feasible
    obj = QuadraticForm.from_dense(np.eye(2), [-0.4, 0.0], 0.04)
    res = solve_one_constraint(obj, circle())
    assert res.status is OneConstraintStatus.OPTIMAL
    assert np.allclose(res.x, [0.2, 0.0], atol=1e-8)
    assert res.eta == 0.0


def test_solve_one_constraint_active_known_multiplier():
    # min ||x||^2 - 4 x1 on the unit disk -> x = (1, 0), eta = 1, value -3
    obj = QuadraticForm.from_dense(np.eye(2), [-4.0, 0.0], 0.0)
    res = solve_one_constraint(obj, circle())
    assert res.status is OneConstraintStatus.OPTIMAL
    assert np.allclose(res.x, [1.0, 0.0], atol=1e-8)
    assert res.value == pytest.approx(-3.0, abs=1e-8)
    assert res.eta == pytest.approx(1.0, abs=1e-6)


def test_solve_one_constraint_nonconvex_objective_hard_case():
    # min x1^2 - x2^2 on the unit disk = -1, attained at (0, +-1)
    obj = QuadraticForm.from_dense(np.diag([1.0, -1.0]))
    res = solve_one_constraint(obj, circle())
    assert res.status is OneConstraintStatus.OPTIMAL
    assert res.value == pytest.approx(-1.0, abs=1e-7)
    assert abs(res.x[1]) == pytest.approx(1.0, abs=1e-6)


def test_solve_one_constraint_infeasible():
    form = QuadraticForm.from_dense(np.eye(2), None, 1.0)
    res = solve_one_constraint(QuadraticForm.from_dense(np.eye(2)), form)
    assert res.status is OneConstraintStatus.INFEASIBLE


def test_solve_one_constraint_dual_unbounded():
    # concave objective, affine constraint: no eta makes the pencil PSD
    obj = QuadraticForm.from_dense(-np.eye(2))
    form = QuadraticForm.create(2, (), [1.0, 0.0], -1.0)
    res = solve_one_constraint(obj, form)
    assert res.status is OneConstraintStatus.DUAL_UNBOUNDED


def test_strong_duality_against_dual_value():
    # independent check: the dual value at the reported eta matches f0(x*)
    rng = np.random.default_rng(21)
    hits = 0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        A = rng.standard_normal((n, n))
        P0 = 0.5 * (A + A.T)
        obj = QuadraticForm.from_dense(P0, rng.standard_normal(n), 0.0)
        form = circle(n, radius=float(1.0 + rng.uniform()))
        res = solve_one_constraint(obj, form)
        if res.status is not OneConstraintStatus.OPTIMAL:
            continue
        eta = res.eta
        M = P0 + eta * np.eye(n)
        q = obj.q_vec
        # g(eta) = -1/4 q'(P0 + eta I)^+ q + eta r1
        xs = np.linalg.lstsq(M, -0.5 * q, rcond=1e-9)[0]
        dual = float(xs @ (M @ xs) + q @ xs) + eta * form.r
        assert dual == pytest.approx(res.value, rel=1e-5, abs=1e-6)
        # primal feasibility
        assert evaluate(form, res.x) <= 1e-6
        hits += 1
    assert hits > 20


PENCIL_KINDS = ("indefinite", "psd", "nsd", "rank-one", "zero", "identity")


def pencil_matrix(rng, n: int, kind: str) -> np.ndarray:
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "identity":
        return np.eye(n)
    if kind == "indefinite":
        A = rng.standard_normal((n, n))
        return A + A.T
    if kind == "rank-one":
        v = rng.standard_normal(n)
        return rng.choice([-1.0, 1.0]) * np.outer(v, v)
    B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    return B @ B.T if kind == "psd" else -(B @ B.T)


def random_one_constraint_instance(rng) -> tuple[QuadraticForm, QuadraticForm]:
    """f0, f1 with n <= 6; P drawn from PENCIL_KINDS, q zero one time in three."""
    n = int(rng.integers(1, 7))
    forms = []
    for _ in range(2):
        P = pencil_matrix(rng, n, PENCIL_KINDS[int(rng.integers(len(PENCIL_KINDS)))])
        q = np.zeros(n) if rng.integers(3) == 0 else rng.standard_normal(n)
        forms.append(QuadraticForm.from_dense(P, q, float(rng.standard_normal())))
    return forms[0], forms[1]


def duality_certificate_failures(objective: QuadraticForm, form: QuadraticForm, res) -> list[str]:
    """Checks that (x, eta) certifies optimality through the Lagrangian dual g(eta).

    g(eta) = min_x f0 + eta*f1 <= min {f0 : f1 <= 0} <= f0(x) for feasible x,
    so a feasible x with f0(x) = g(eta) is a global minimizer.
    """
    P0, q0, r0 = objective.dense_p, objective.q_vec, objective.r
    P1, q1, r1 = form.dense_p, form.q_vec, form.r
    x, eta = res.x, res.eta
    if not eta >= 0.0:
        return [f"eta = {eta} < 0"]
    failures = []
    M = P0 + eta * P1
    b = -0.5 * (q0 + eta * q1)
    scale = 1.0 + np.linalg.norm(P0) + eta * np.linalg.norm(P1)
    if np.linalg.eigvalsh(M)[0] < -1e-8 * scale:
        failures.append("P0 + eta*P1 is not PSD")
    y = np.linalg.lstsq(M, b, rcond=1e-9)[0]
    if np.linalg.norm(M @ y - b) > 1e-7 * (1.0 + np.linalg.norm(b) + scale * np.linalg.norm(y)):
        failures.append("stationarity system is inconsistent")
    g = float(y @ (M @ y) - 2.0 * b @ y) + r0 + eta * r1
    f0, f1 = evaluate(objective, x), evaluate(form, x)
    if f1 > 1e-7 * (1.0 + np.linalg.norm(P1) + np.linalg.norm(q1) + abs(r1)) * (1.0 + np.linalg.norm(x)) ** 2:
        failures.append(f"f1(x) = {f1} > 0")
    if f0 - g > 1e-6 * (1.0 + abs(f0)):
        failures.append(f"duality gap f0(x) - g(eta) = {f0 - g}")
    if res.value != pytest.approx(f0, rel=1e-9, abs=1e-9):
        failures.append("value != f0(x)")
    return failures


def test_solve_one_constraint_certified_on_degenerate_pencils():
    rng = np.random.default_rng(0)
    optimal = 0
    for k in range(600):
        objective, form = random_one_constraint_instance(rng)
        res = solve_one_constraint(objective, form)
        if res.status is OneConstraintStatus.OPTIMAL:
            assert duality_certificate_failures(objective, form, res) == [], k
            optimal += 1
    assert optimal >= 200


def test_solve_one_constraint_trust_region_hard_cases():
    # P1 > 0 and q0 without component along the lowest generalized
    # eigenvectors of (P0, P1), moved off the origin: the optimum sits at the
    # boundary multiplier where P0 + eta*P1 is singular
    rng = np.random.default_rng(5)
    for k in range(200):
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        P1 = A @ A.T + 0.1 * np.eye(n) if k % 2 else np.eye(n)
        L = np.linalg.cholesky(P1)
        w, V = np.linalg.eigh(A + A.T)
        low = int(rng.integers(1, n + 1))
        w[:low] = w[0]
        c = rng.standard_normal(n)
        c[:low] = 0.0
        P0, q0 = L @ ((V * w) @ V.T) @ L.T, L @ (V @ c)
        x0 = rng.standard_normal(n) * (0.0, 1.0, 10.0)[k % 3]
        # f(x - x0) for f0 and for f1 = x'P1x + r1
        r1 = -float(rng.uniform(0.1, 3.0))
        objective = QuadraticForm.from_dense(P0, q0 - 2.0 * P0 @ x0, float(x0 @ P0 @ x0 - q0 @ x0))
        form = QuadraticForm.from_dense(P1, -2.0 * P1 @ x0, float(x0 @ P1 @ x0) + r1)
        res = solve_one_constraint(objective, form)
        assert res.status is OneConstraintStatus.OPTIMAL, k
        assert duality_certificate_failures(objective, form, res) == [], k


def test_solve_one_constraint_pencil_definite_far_from_zero():
    # P0 + eta*P1 is definite only for eta > 1e9, so eta = eta_bar + nu cancels
    # unless the projection is repeated from eta_bar = eta
    objective = QuadraticForm.from_dense(1e9 * np.diag([1.0, -1.0]), [1.0, 1.0])
    res = solve_one_constraint(objective, circle())
    assert res.status is OneConstraintStatus.OPTIMAL
    assert res.value == pytest.approx(-1e9 - 1.0, rel=1e-9)
    # the certificate of duality_certificate_failures, with an exact solve:
    # its truncated least squares cannot resolve M, whose condition is 4e9
    eta = res.eta
    M = objective.dense_p + eta * np.eye(2)
    assert eta >= 0.0 and np.linalg.eigvalsh(M)[0] > 0.0
    b = -0.5 * objective.q_vec
    dual = -float(b @ np.linalg.solve(M, b)) - eta  # g(eta) = min over x of f0 + eta*f1
    assert evaluate(circle(), res.x) <= 1e-12
    assert res.value == evaluate(objective, res.x)
    assert res.value - dual <= 1e-9 * abs(dual)


def test_solve_interval_known_value():
    # min x1^2 + x2^2 subject to 1 <= ||x||^2 <= 4 -> value 1
    obj = QuadraticForm.from_dense(np.eye(2))
    shape = QuadraticForm.from_dense(np.eye(2))
    res = solve_interval(obj, shape, 1.0, 4.0)
    assert res.status is OneConstraintStatus.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(res.x) == pytest.approx(1.0, abs=1e-6)


def test_solve_interval_upper_only():
    obj = QuadraticForm.from_dense(np.eye(2), [-4.0, 0.0])
    shape = QuadraticForm.from_dense(np.eye(2))
    res = solve_interval(obj, shape, -math.inf, 1.0)
    assert res.value == pytest.approx(-3.0, abs=1e-6)


def test_solve_interval_validates_bounds():
    obj = QuadraticForm.from_dense(np.eye(2))
    with pytest.raises(ValueError):
        solve_interval(obj, obj, 2.0, 1.0)
