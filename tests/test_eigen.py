"""Principal eigenvalue solver: anchors, comparison bounds, limits, sweeps."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_operator, params_with
from nlfront import eigen, grids, semiwave
from nlfront.grids import default_cells
from nlfront.model import Kernel, Nonlinearity, derived_constants


def test_eigenpair_basics(p1):
    spec = eigen.lambda1_spec(2.0, p1)
    pair = eigen.principal_eigenpair(spec)
    assert pair.residual < 1e-9
    assert np.all(pair.phi1 > 0.0) and np.all(pair.phi2 > 0.0)
    assert pair.iterations > 0
    assert abs(pair.lambda_p - 0.8192) < 5e-4


def test_power_iteration_matches_dense(p1):
    # a12 != a21 exercises the symmetrizing scale; d1 = 0 a diagonal block
    for params in (p1, params_with(nonlinearity=Nonlinearity("saturating", 4.0, 0.8)),
                   params_with(d1=0.0)):
        spec = eigen.lambda1_spec(2.0, params, num_cells=200)
        op = eigen.assemble(spec)
        lam_dense = float(np.max(np.linalg.eigvals(dense_operator(op)).real))
        pair = eigen.principal_eigenpair(spec)
        assert abs(pair.lambda_p - lam_dense) < 1e-10


def test_comparison_vectors_bound_the_eigenvalue(p1):
    # the constant positive test vectors built from the closed-form rates
    # must give one-sided residuals, which pins lambda between the rates
    dc = derived_constants(p1)
    for l in (0.5, 2.0, 10.0, 50.0):
        spec = eigen.lambda1_spec(l, p1)
        op = eigen.assemble(spec)
        n = spec.num_cells
        w_a = np.concatenate([np.full(n, dc.thetaA), np.ones(n)])
        resid_a = op.matvec(w_a) - dc.gammaA * w_a
        assert np.max(resid_a) <= 1e-12
        lam = eigen.principal_eigenpair(spec).lambda_p
        assert lam <= dc.gammaA + 1e-6
        assert lam >= dc.gammaB - 1e-6


def test_lambda_monotone_in_length(p1):
    vals = [eigen.lambda1(l, p1) for l in (0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_sign_agreement_and_ratio_band(p1):
    for l in (0.1, 1.0, 10.0, 100.0):
        lam1 = eigen.lambda1(l, p1)
        lam2 = eigen.lambda2(l, p1)
        assert lam1 > 0 and lam2 > 0  # this family grows at every length
        assert lam1 / 2.0 - 1e-6 <= lam2 <= lam1 / 2.0 + 1e-6


def test_ratio_band_asymmetric_slopes():
    p = params_with(nonlinearity=Nonlinearity("saturating", 2.0, 3.0))
    for l in (1.0, 4.0):
        lam1 = eigen.lambda1(l, p)
        lam2 = eigen.lambda2(l, p)
        assert lam1 > 0
        assert lam1 / 3.0 - 1e-6 <= lam2 <= lam1 / 2.0 + 1e-6


def test_small_dispersal_limit(p1):
    lam = eigen.lambda1(10.0, params_with(d1=1e-3, d2=1e-3))
    assert abs(lam - 1.0) < 0.05


def test_scalar_principal_anchor_and_range(laplace):
    kappa = eigen.scalar_principal(1.0, 0.0, laplace, 1.0)
    assert abs(kappa - (-0.2901587827289902)) < 1e-10
    for l in (0.5, 2.0, 10.0):
        k = eigen.scalar_principal(1.0, 0.0, laplace, l)
        assert -0.5 < k < 0.0


def test_scalar_principal_affine_in_rate_and_shift(laplace):
    base = eigen.scalar_principal(1.0, 0.0, laplace, 3.0)
    for d, a_diag in ((0.3, -1.0), (2.0, 0.7)):
        val = eigen.scalar_principal(d, a_diag, laplace, 3.0)
        assert abs(val - (d * base + a_diag)) < 1e-9


def test_equal_rate_eigenvalue_splits_exactly(p1):
    # equal kernels and equal rates share the scalar eigenfunction, so the
    # pair eigenvalue is the scalar part plus the coupling growth rate
    cells = default_cells(10.0)
    kappa = eigen.scalar_principal(1.0, 0.0, p1.kernel1, 10.0, num_cells=cells)
    for d in (10.0, 100.0, 500.0):
        lam = eigen.lambda1(10.0, params_with(d1=d, d2=d), num_cells=cells)
        assert abs(lam - (d * kappa + 1.0)) < 1e-7
    assert eigen.lambda1(10.0, params_with(d1=500.0, d2=500.0)) < -5.0


def test_degenerate_row_still_solvable():
    pair = eigen.principal_eigenpair(eigen.lambda1_spec(2.0, params_with(d1=0.0)))
    assert pair.residual < 1e-9
    assert np.all(pair.phi1 > 0.0) and np.all(pair.phi2 > 0.0)


def test_failed_solve_raises_with_last_iterate(p1, monkeypatch):
    spec = eigen.lambda1_spec(2.0, p1)
    dim = 2 * spec.num_cells
    monkeypatch.setattr(eigen, "_lanczos", lambda apply, n, accept: (0.5, np.ones(n), False))
    with pytest.raises(eigen.EigenConvergenceError, match="did not converge") as err:
        eigen.principal_eigenpair(spec)
    assert err.value.lambda_p == 0.5 and err.value.vector.shape == (dim,)
    # a pair that misses the residual contract on the assembled operator
    monkeypatch.setattr(eigen, "_lanczos", lambda apply, n, accept: (0.5, np.ones(n), True))
    with pytest.raises(eigen.EigenConvergenceError, match="eigen-residual"):
        eigen.principal_eigenpair(spec)


def test_operator_past_the_float_range_fails_without_warnings():
    # d1 = 1e300 overflows the Lanczos basis norms: a solver failure (exit
    # 3 from the CLI), with no numpy warning on the way
    spec = eigen.lambda1_spec(2.0, params_with(d1=1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eigen.EigenConvergenceError, match="did not converge"):
            eigen.principal_eigenpair(spec)


@pytest.mark.parametrize("l, cells", [(2.187, 200), (9.275, 371)])
def test_lanczos_matches_dense_symmetric_spectrum(l, cells):
    # lambda near 0 at the critical length (P1 at d = 6), and a grid above
    # DENSE_MAX, whose matvec convolves by FFT
    spec = eigen.lambda1_spec(l, params_with(d1=6.0, d2=6.0), num_cells=cells)
    op = eigen.assemble(spec)
    scale = np.ones(op.dim)
    scale[op.n:] = math.sqrt(spec.a21 / spec.a12)
    sym = dense_operator(op) * scale[None, :] / scale[:, None]
    top = float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1])
    assert abs(eigen.principal_eigenpair(spec).lambda_p - top) < 1e-12


def _symmetric_top(spec: eigen.OperatorSpec) -> float:
    """eigvalsh's top eigenvalue of the symmetrized dense operator D^-1 L D."""
    op = eigen.assemble(spec)
    scale = np.ones(op.dim)
    scale[op.n:] = math.sqrt(spec.a21 / spec.a12)
    sym = dense_operator(op) * scale[None, :] / scale[:, None]
    return float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1])


def test_enclosures_settle_signs_and_stay_narrow(p1_d6):
    # at each end of ell*'s final bracket the enclosure lies on one side of
    # 0, so lambda1 of the discrete operator changes sign inside the bracket
    crit = eigen.critical_length(p1_d6)
    (_, below), (above, _) = crit.bracket_enclosures
    assert below < 0.0 < above
    # an FFT-path grid (300 cells, unequal kernels): the extended-precision
    # certificate product encloses the dense top eigenvalue
    spec = eigen.lambda1_spec(9.0, params_with(d1=6.0, d2=6.0, kernel2=Kernel("gaussian", 0.8)),
                              num_cells=300)
    pair = eigen.principal_eigenpair(spec)
    lo, hi = pair.enclosure
    assert lo <= _symmetric_top(spec) <= hi and lo <= pair.lambda_p <= hi
    # 16,000 unknowns at l = 200, where the eigenfunction falls to 0.008 at the edges
    lo, hi = eigen.principal_eigenpair(eigen.lambda1_spec(200.0, p1_d6)).enclosure
    assert 0.0 < hi - lo < 1e-11


def test_solves_stop_once_the_enclosure_settles_the_sign(p1_d6, monkeypatch):
    # the loose stop accepts the pair after one restart's 20 products and
    # the certificate's one; the EPS stop alone takes 31
    assert eigen.principal_eigenpair(eigen.lambda1_spec(1.0, p1_d6)).iterations <= 21
    # critical_length at d = 6: 372 operator applications with the EPS stop
    # alone, and a ceiling 25% below that
    count = [0]
    matvec = eigen.DiscreteOperator.matvec
    monkeypatch.setattr(eigen.DiscreteOperator, "matvec",
                        lambda op, *args: count.__setitem__(0, count[0] + 1) or matvec(op, *args))
    eigen.critical_length(p1_d6)
    assert count[0] <= 279


def test_rejected_loose_stops_leave_the_solve_unchanged(p1_d6, monkeypatch):
    # with every loose stop rejected, the solve returns the pair of the EPS
    # stop alone (LOOSE_TOL = 0 offers none) bit for bit, one product per
    # rejected check later
    spec = eigen.lambda1_spec(1.0, p1_d6)
    with monkeypatch.context() as patch:
        patch.setattr(eigen, "LOOSE_TOL", 0.0)
        base = eigen.principal_eigenpair(spec)
    monkeypatch.setattr(eigen, "WIDTH_TOL", 0.0)
    pair = eigen.principal_eigenpair(spec)
    assert pair.lambda_p == base.lambda_p
    assert np.array_equal(pair.phi1, base.phi1) and np.array_equal(pair.phi2, base.phi2)
    assert pair.iterations > base.iterations
    lo, hi = pair.enclosure
    assert lo <= base.lambda_p <= hi < 0.0


@pytest.mark.parametrize("l, cells, kappa", [(2.0, 200, -0.18077862570694864),
                                             (10.0, 400, -0.019806739279741404)],
                         ids=["dense-200", "fft-400"])
def test_scalar_reduction_has_an_enclosure(laplace, l, cells, kappa):
    # kappa1 as the equal-species case of the pair, on the dense path (200
    # cells) and the FFT path (400): its enclosure holds the dense top
    # eigenvalue, and the value is that of the former scalar solve
    spec = eigen.scalar_spec(1.0, 0.0, laplace, l, cells)
    pair = eigen.principal_eigenpair(spec)
    lo, hi = pair.enclosure
    assert lo <= pair.lambda_p <= hi and hi - lo < 1e-11
    sym = dense_operator(eigen.assemble(spec))
    assert lo <= float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1]) <= hi
    assert abs(pair.lambda_p - kappa) < 1e-13
    assert eigen.scalar_principal(1.0, 0.0, laplace, l, cells) == pair.lambda_p
    assert np.max(np.abs(pair.phi1 - pair.phi2)) < 1e-10


@pytest.mark.parametrize("alpha, beta", [(1e-300, 2.0), (2.0, 1e-300)])
def test_near_uncoupled_eigenvalue_is_the_scalar_one(laplace, alpha, beta):
    # H'(0) or G'(0) = 1e-300 once exited 3 (eigen-residual 4e284); the
    # pair is then nearly two uncoupled scalar operators K - j - 1
    params = params_with(nonlinearity=Nonlinearity("saturating", alpha, beta))
    pair = eigen.principal_eigenpair(eigen.lambda1_spec(2.0, params))
    assert abs(pair.lambda_p - eigen.scalar_principal(1.0, -1.0, laplace, 2.0)) < 1e-12
    lo, hi = pair.enclosure
    assert lo <= pair.lambda_p <= hi


def test_critical_length_solve_stays_near_arpack_cost(p1_d6):
    # ARPACK took 51 operator applications for lambda1 at ell* (P1, d = 6);
    # a stop rule relative to |lambda| ~ 1e-7 alone took 300
    ell = eigen.critical_length(p1_d6)
    pair = eigen.principal_eigenpair(eigen.lambda1_spec(ell.value, p1_d6,
                                                        num_cells=ell.num_cells))
    assert pair.iterations <= 2 * 51


def test_grid_floor_and_spec_validation(p1, laplace):
    with pytest.raises(eigen.EigenGridError, match="below the minimum"):
        eigen.assemble(eigen.lambda1_spec(2.0, p1, num_cells=4))
    with pytest.raises(eigen.EigenGridError, match="length must be positive"):
        eigen.lambda1_spec(-1.0, p1)
    with pytest.raises(eigen.EigenGridError, match="a12, a21"):
        eigen.OperatorSpec(l=1.0, d1=1.0, d2=1.0, a11=-1.0, a22=-1.0,
                           a12=0.0, a21=2.0, kernel1=laplace, kernel2=laplace)


def test_critical_length_bisection(p1_d6):
    crit = eigen.critical_length(p1_d6)
    assert abs(crit.value - 2.187040) < 5e-6
    assert abs(crit.lam_at_value) < 5e-7
    lo, hi = crit.bracket
    assert lo <= crit.value <= hi
    assert eigen.lambda1(lo, p1_d6, num_cells=crit.num_cells) < 0
    assert eigen.lambda1(hi, p1_d6, num_cells=crit.num_cells) > 0


def test_critical_length_guarantees_its_eigenvalue_bound(p1_d6):
    # lam_tol bounds |lambda1(value)|; a bound the root cannot meet is a
    # solver failure, not a wider answer
    assert abs(eigen.critical_length(p1_d6, lam_tol=1e-10).lam_at_value) < 1e-10
    with pytest.raises(RuntimeError, match="out of tolerance"):
        eigen.critical_length(p1_d6, lam_tol=1e-30)


def test_critical_length_keeps_the_lower_end_solve(p1_d6, monkeypatch):
    # lo = 0.01 already has the pinned resolution (200 cells), and so has
    # the last doubling step's hi = 4, so Brent's method starts from both
    # values and no (l, cells) pair is solved twice
    seen = []
    solve = eigen.principal_eigenpair
    monkeypatch.setattr(eigen, "principal_eigenpair",
                        lambda spec: seen.append((spec.l, spec.num_cells)) or solve(spec))
    crit = eigen.critical_length(p1_d6)
    assert crit.evaluations == len(seen) <= 14
    assert {(0.01, crit.num_cells), (4.0, crit.num_cells)} <= set(seen)
    assert len(set(seen)) == len(seen)


def test_eigen_products_go_through_the_one_switch(p1, laplace, monkeypatch):
    # up to DENSE_MAX cells the eigen operator convolves with the cached
    # dense block (shared by equal kernels, one per row otherwise) and never
    # makes an FFT product; above it, the product is the grid's convolver
    # bit for bit.  The semi-wave makes every FFT product through the same
    # switch: one per sweep and one for its final residual
    for params in (p1, params_with(kernel2=Kernel("gaussian", 0.8))):
        op = eigen.assemble(eigen.lambda1_spec(2.0, params, num_cells=200))
        w = np.random.default_rng(0).uniform(0.5, 1.0, op.dim)
        assert np.max(np.abs(op.matvec(w) - dense_operator(op) @ w)) < 1e-14

    def refuse(*args):
        raise AssertionError("FFT product on a dense-size grid")

    with monkeypatch.context() as patch:
        patch.setattr(grids, "_circulant_apply", refuse)
        eigen.principal_eigenpair(eigen.lambda1_spec(2.0, p1, num_cells=200))
        eigen.scalar_principal(1.0, 0.0, laplace, 2.0, num_cells=200)
        # the guard sees the FFT branch: a grid above DENSE_MAX trips it
        with pytest.raises(AssertionError, match="FFT product"):
            eigen.principal_eigenpair(eigen.lambda1_spec(18.3, p1, num_cells=733))
    n = 733
    big = eigen.assemble(eigen.lambda1_spec(18.3, p1, num_cells=n))
    w = np.random.default_rng(1).uniform(0.5, 1.0, big.dim)
    uv = w.reshape(2, n)
    conv = grids.KernelConvolver((p1.kernel1, p1.kernel2), big.dx, n)
    ref = big.diag * uv + big.coupling * uv[::-1] + big.rates * conv.apply(uv)
    assert np.array_equal(big.matvec(w), ref.ravel())

    inside, products = [], []
    switch, circulant = grids.stacked_convolution, grids._circulant_apply

    def traced_switch(members, k):
        op = switch(members, k)

        def run(src):
            inside.append(k)
            try:
                return op(src)
            finally:
                inside.pop()
        return run

    def traced_circulant(*args):
        assert inside, "FFT product outside the switch"
        products.append(args[0].shape)
        return circulant(*args)

    with monkeypatch.context() as patch:
        patch.setattr(grids, "stacked_convolution", traced_switch)
        patch.setattr(grids, "_circulant_apply", traced_circulant)
        wave = semiwave.solve_semiwave(p1, L=20.0, dx=0.05)
    assert products == [(2, 401)] * (wave.sweeps + 1)


def test_critical_length_rejects_one_signed_families(p1, vanish_params):
    with pytest.raises(ValueError):
        eigen.critical_length(p1)  # positive at every length
    with pytest.raises(ValueError):
        eigen.critical_length(vanish_params)  # negative at every length


def test_sweep_over_length(p1):
    spec = eigen.lambda1_spec(1.0, p1)
    result = eigen.sweep(spec, "l", [0.5, 1.0, 2.0, 4.0])
    assert len(result.points) == 4
    assert result.violations == ()
    assert result.errors == ()
    lams = [pt.lambda_p for pt in result.points]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_sweep_direction_and_errors(p1):
    spec = eigen.lambda1_spec(2.0, p1)
    result = eigen.sweep(spec, "d1", [0.5, 1.0, 2.0])
    assert result.violations == ()  # decreasing trend expected and observed
    bad = eigen.sweep(spec, "l", [1.0, -1.0, 2.0])
    assert len(bad.points) == 2
    assert len(bad.errors) == 1 and bad.errors[0][0] == -1.0
    with pytest.raises(ValueError, match="cannot sweep"):
        eigen.sweep(spec, "kernel1", [1.0])


_KERNELS = st.one_of(
    st.builds(Kernel, st.sampled_from(["laplace", "gaussian"]), st.floats(0.5, 2.0)),
    st.builds(Kernel, st.just("cauchy"), st.floats(0.5, 2.0), exponent=st.floats(1.5, 3.0)),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(kernel1=_KERNELS, kernel2=_KERNELS, d1=st.floats(0.1, 5.0), d2=st.floats(0.1, 5.0),
       a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), hp=st.floats(0.5, 3.0),
       gp=st.floats(0.5, 3.0), l=st.floats(0.1, 12.0))
def test_growth_rate_between_closed_form_limits(kernel1, kernel2, d1, d2, a, b, hp, gp, l):
    # gammaB <= lambda1(l) <= gammaA at every length, and lambda2 shares the
    # sign of lambda1 wherever lambda1 is clear of the critical band
    p = params_with(kernel1=kernel1, kernel2=kernel2, d1=d1, d2=d2, a=a, b=b,
                    nonlinearity=Nonlinearity("saturating", hp, gp))
    dc = derived_constants(p)
    lam1 = eigen.lambda1(l, p)
    assert dc.gammaB - 1e-6 <= lam1 <= dc.gammaA + 1e-6
    if abs(lam1) > eigen.SIGN_BAND:
        assert (eigen.lambda2(l, p) > 0.0) == (lam1 > 0.0)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(kernel1=_KERNELS, kernel2=_KERNELS, d1=st.floats(0.1, 8.0), d2=st.floats(0.1, 8.0),
       a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), hp=st.floats(0.5, 3.0),
       gp=st.floats(0.5, 3.0), l=st.floats(0.1, 12.0), cells=st.integers(8, 200))
def test_enclosure_contains_the_top_eigenvalue(kernel1, kernel2, d1, d2, a, b, hp, gp, l,
                                              cells):
    # the Collatz-Wielandt enclosure, widened by its rounding margin,
    # contains the Lanczos value and eigvalsh's top eigenvalue of the
    # symmetrized dense operator, on dense-path grids of up to 400 unknowns
    p = params_with(kernel1=kernel1, kernel2=kernel2, d1=d1, d2=d2, a=a, b=b,
                    nonlinearity=Nonlinearity("saturating", hp, gp))
    spec = eigen.lambda1_spec(l, p, num_cells=cells)
    pair = eigen.principal_eigenpair(spec)
    lo, hi = pair.enclosure
    assert lo <= pair.lambda_p <= hi
    assert lo <= _symmetric_top(spec) <= hi
