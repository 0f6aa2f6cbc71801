"""Principal eigenvalues of the coupled nonlocal dispersal operator.

The operator acts on pairs (phi1, phi2) on [0, l]:

    L[phi] = ( d1 (K1 phi1 - j1 phi1) + a11 phi1 + a12 phi2,
               a21 phi1 + d2 (K2 phi2 - j2 phi2) + a22 phi2 )

where K is convolution against the kernel restricted to [0, l] and j(x) is
the kernel CDF (the mass a point at depth x keeps on its inner side, the
habitat being unbounded to the right of the front only through j).  The
diagonal blocks are symmetric Toeplitz plus diagonal and the couplings are
multiples of the identity, so with D = diag(I, sqrt(a21/a12) I) the matrix
D^-1 L D is symmetric.  Its largest eigenvalue is found by one
thick-restart Lanczos solve in numpy (Wu and Simon, SIAM J. Matrix Anal.
Appl. 22, 2000; the start vector is all ones), mapped back through D, and
certified on L itself: sup-norm residual below 1e-10 and a positive
eigenvector (a12, a21 > 0 make L irreducible, so the principal
eigenfunction is positive).  The same product (on an FFT grid, one more
in extended precision) gives the Collatz-Wielandt enclosure of the
eigenvalue, min_i (L x)_i / x_i <= lambda <= max_i (L x)_i / x_i for x >
0, widened by a stated rounding margin (`DiscreteOperator.enclosure`).
The solve stops at machine precision, or earlier: once the top Ritz
residual is at most LOOSE_TOL relative, a pair whose certificate meets
the residual bound and gives an enclosure narrower than WIDTH_TOL max(1,
|lambda|) that excludes 0 is accepted, since that settles the
eigenvalue's sign.  The scalar operator d (K - j) + a_diag is solved as
the equal-species case of the pair (`scalar_spec`), so it is certified
and enclosed alike.  Roots of the eigenvalue in a parameter are found by
`model._brentq`, the one root finder of the package, to the absolute
tolerance ROOT_XTOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import DENSE_MAX, Discretization, default_cells
from .model import Kernel, ModelParams, _brentq, derived_constants

__all__ = [
    "EigenGridError",
    "EigenConvergenceError",
    "OperatorSpec",
    "Eigenpair",
    "DiscreteOperator",
    "assemble",
    "principal_eigenpair",
    "scalar_principal",
    "lambda1",
    "lambda2",
    "lambda1_spec",
    "lambda2_spec",
    "scalar_spec",
    "critical_length",
    "CriticalLength",
    "sweep",
    "SweepPoint",
    "SweepResult",
]

SIGN_BAND = 1e-6  # |eigenvalue| below this is treated as zero (critical)
RESIDUAL_TOL = 1e-10
LOOSE_TOL = 1e-12  # relative Ritz residual at which a Lanczos solve tries to stop early
WIDTH_TOL = 1e-11  # widest enclosure, relative to max(1, |lambda|), that stops it
ROOT_XTOL = 1e-9  # absolute width of the final sign bracket of an eigenvalue root
KRYLOV = 20  # Lanczos basis size at which the solve restarts
KEEP = 10  # Ritz vectors kept across a restart
EPS = float(np.finfo(float).eps)


class EigenGridError(ValueError):
    """Refused operator assembly (resolution too coarse or bad coefficients)."""


class EigenConvergenceError(RuntimeError):
    """Eigensolve failed to converge or to certify; carries the last iterate."""

    def __init__(self, message: str, lambda_p: float, vector: np.ndarray, iterations: int,
                 residual: float):
        super().__init__(message)
        self.lambda_p = lambda_p
        self.vector = vector
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class OperatorSpec:
    """Assembly recipe: domain length, rates, coupling matrix entries, kernels.

    ``num_cells`` defaults to the package resolution policy
    ``max(200, ceil(40 l))`` when omitted.
    """

    l: float
    d1: float
    d2: float
    a11: float
    a22: float
    a12: float
    a21: float
    kernel1: Kernel
    kernel2: Kernel
    num_cells: int | None = None

    def __post_init__(self):
        if not 0.0 < self.l < math.inf:
            raise EigenGridError("domain length must be positive and finite")
        if self.d1 < 0 or self.d2 < 0 or self.d1 + self.d2 <= 0:
            raise EigenGridError("need d1, d2 >= 0 and d1 + d2 > 0")
        if self.a12 <= 0 or self.a21 <= 0:
            raise EigenGridError("coupling entries a12, a21 must be positive (irreducibility)")
        if self.num_cells is None:
            object.__setattr__(self, "num_cells", default_cells(self.l))


@dataclass(frozen=True)
class Eigenpair:
    """``enclosure`` = (lo, hi) contains the principal eigenvalue of the
    assembled operator (`DiscreteOperator.enclosure`), or is (-inf, inf)
    when the eigenvector has an entry <= 0; ``lambda_p``, a weighted mean
    of the quotients the enclosure widens, lies in it up to rounding."""

    lambda_p: float
    phi1: np.ndarray
    phi2: np.ndarray
    x: np.ndarray
    iterations: int
    residual: float
    enclosure: tuple[float, float]


class DiscreteOperator:
    """Assembled grid operator with fast matvec on stacked (phi1, phi2).

    The matvec convolves through `Discretization.convolve`, so up to
    DENSE_MAX cells it reads the grid's cached dense block and above that
    the grid's FFT convolver.

    Row r of the (2, n) arrays belongs to species r: ``diag`` holds
    -d_r j_r + a_rr, ``coupling`` the off-diagonal entry that multiplies the
    other species, ``rates`` the dispersal rate d_r.
    """

    def __init__(self, spec: OperatorSpec):
        n = spec.num_cells
        self.spec = spec
        self.dx = spec.l / n
        self.n = n
        self.grid = Discretization((spec.kernel1, spec.kernel2), self.dx, n)
        self.x = self.grid.x
        self.rates = np.array([[spec.d1], [spec.d2]])
        self.diag = -self.rates * self.grid.j + np.array([[spec.a11], [spec.a22]])
        self.coupling = np.array([[spec.a12], [spec.a21]])

    @property
    def dim(self) -> int:
        return 2 * self.n

    def matvec(self, w: np.ndarray, conv: np.ndarray | None = None) -> np.ndarray:
        """L w; ``conv``, when given, stands for K applied to w's rows."""
        uv = w.reshape(2, self.n)
        out = (self.diag * uv + self.coupling * uv[::-1]
               + self.rates * (self.grid.convolve(uv) if conv is None else conv))
        return out.ravel()

    def enclosure(self, x: np.ndarray, lx: np.ndarray, matvec) -> tuple[float, float]:
        """Collatz-Wielandt enclosure of the principal eigenvalue from x > 0
        and its computed product lx: min_i (L x)_i / x_i <= lambda <= max_i
        (L x)_i / x_i, as L has no negative entry off its diagonal.

        Each quotient is widened by a bound on its rounding error.  As |L| x
        = L x + 2 max(-diag, 0) x for x > 0, on the dense path (n <=
        DENSE_MAX), where an entry of L x is a dot product of n terms, a
        product with the rate and two additions, and the quotient and the
        margin are rounded once each, Higham's gamma_{n+4} (|L| x)_i / x_i
        bounds it all, gamma_k = k u / (1 - k u), u = 2^-53 (Accuracy and
        Stability of Numerical Algorithms, 2nd ed., §3.1; the computed L x
        in place of the exact one adds second-order terms that fit in the
        same index).  On the FFT path the product is taken again, as
        ``matvec(x, conv)`` with the convolution in extended precision
        (`KernelConvolver.precise`, error at most E_i), and (gamma_6 (|L|
        x)_i + (1 + gamma_6) d_r E_i) / x_i bounds it, the sixth rounding
        being that of the extended product to float.
        """
        uv = x.reshape(2, self.n)
        k, bound = self.n + 4, 0.0
        if self.n > DENSE_MAX:
            conv, bound = self.grid.stack(self.n).precise(uv)
            lx, k = matvec(x, conv), 6
        gamma = k * EPS / 2 / (1.0 - k * EPS / 2)
        size = lx.reshape(uv.shape) + 2.0 * np.maximum(-self.diag, 0.0) * uv
        q, slack = lx / x, (gamma * size + (1.0 + gamma) * self.rates * bound).ravel() / x
        return float(np.min(q - slack)), float(np.max(q + slack))


def assemble(spec: OperatorSpec) -> DiscreteOperator:
    """Build the discrete operator; refuses grids with fewer than 8 cells."""
    if spec.num_cells < 8:
        raise EigenGridError(
            f"refusing to assemble: num_cells={spec.num_cells} is below the minimum of 8"
        )
    return DiscreteOperator(spec)


# ---------------------------------------------------------------------------
# eigensolve
# ---------------------------------------------------------------------------

def _lanczos(apply, dim: int, accept):
    """Largest eigenvalue and unit eigenvector of the symmetric operator
    ``apply`` on R^dim: (theta, y, converged).

    Thick-restart Lanczos: the basis grows to KRYLOV vectors, each
    orthogonalized against all earlier ones by two classical Gram-Schmidt
    passes, and restarts from the KEEP largest Ritz vectors and the
    residual direction.  It stops when the top Ritz pair's residual norm
    is at most EPS times the largest |Ritz value| (relative to the top
    value alone, a root where it is near 0 would take several times the
    operator applications), when the basis is invariant or spans R^dim,
    after 10 dim restarts (ARPACK's default), or on a non-finite value
    (an operator scaled past the float range), the last two unconverged.
    Where none of these holds but the residual norm is at most LOOSE_TOL
    times the largest |Ritz value|, it stops too if ``accept(theta, y)``;
    ``accept`` leaves the iteration as it was, so a rejected pair changes
    nothing that follows.
    """
    m = min(KRYLOV, dim)
    keep = min(KEEP, m - 1)
    basis = np.empty((m + 1, dim))
    basis[0] = 1.0 / math.sqrt(dim)
    proj = np.zeros((m, m))
    start, theta, y = 0, math.nan, basis[0]
    with np.errstate(all="ignore"):
        for _ in range(10 * dim):
            size = m
            for i in range(start, m):
                w = apply(basis[i])
                h = basis[: i + 1] @ w
                w -= h @ basis[: i + 1]
                again = basis[: i + 1] @ w
                w -= again @ basis[: i + 1]
                h += again
                beta = math.sqrt(w @ w)
                if not (math.isfinite(beta) and np.isfinite(h).all()):
                    return theta, y, False
                proj[: i + 1, i] = proj[i, : i + 1] = h
                if beta <= EPS * math.sqrt(h @ h):
                    size = i + 1  # the basis spans an invariant subspace
                    break
                basis[i + 1] = w / beta
            vals, vecs = np.linalg.eigh(proj[:size, :size])
            theta, y = float(vals[-1]), vecs[:, -1] @ basis[:size]
            resid, top = abs(beta * vecs[-1, -1]), float(np.max(np.abs(vals)))
            if (size < m or m == dim or resid <= EPS * top
                    or resid <= LOOSE_TOL * top and accept(theta, y)):
                return theta, y, True
            basis[:keep] = vecs[:, -keep:].T @ basis[:m]
            basis[keep] = basis[m]
            proj[:] = 0.0
            proj[range(keep), range(keep)] = vals[-keep:]
            start = keep
    return theta, y, False


def principal_eigenpair(spec: OperatorSpec) -> Eigenpair:
    """Principal eigenvalue and positive eigenfunction pair, sup-norm 1.

    The Lanczos solve runs on D^-1 L D, D = diag(I, sqrt(a21/a12) I),
    and the pair is certified on L with one product, from which
    `DiscreteOperator.enclosure` gives the enclosure of lambda (on an FFT
    grid with one more, extended-precision product); the enclosure is
    (-inf, inf) when x is not positive.  A Ritz pair the loose Lanczos
    stop offers is accepted when its residual is below RESIDUAL_TOL and
    its enclosure is narrower than WIDTH_TOL max(1, |lambda|) and excludes
    0; the enclosure is taken only when the unwidened quotients already
    spread by less than that width.

    Convergence contract: the sup-norm eigen-residual on the assembled
    operator is below 1e-10; ``iterations`` counts operator applications.
    """
    op = assemble(spec)
    scale = np.ones(op.dim)
    scale[op.n:] = math.sqrt(spec.a21 / spec.a12)
    count = 0

    def apply(w: np.ndarray, *conv) -> np.ndarray:
        nonlocal count
        count += 1
        return op.matvec(w, *conv)

    def certify(lam: float, y: np.ndarray, width: float = math.inf):
        # (x, residual, enclosure) from one product; the enclosure is taken
        # only when the unwidened quotients spread by less than width
        x = scale * y
        x = x / x[np.argmax(np.abs(x))]
        lx = apply(x)
        wanted = x.min() > 0.0 and np.ptp(lx / x) < width
        enclosure = op.enclosure(x, lx, apply) if wanted else (-math.inf, math.inf)
        return x, float(np.max(np.abs(lx - lam * x))), enclosure

    accepted = []

    def accept(lam: float, y: np.ndarray) -> bool:
        width = WIDTH_TOL * max(1.0, abs(lam))
        x, resid, (lo, hi) = found = certify(lam, y, width)
        if resid < RESIDUAL_TOL and hi - lo < width and (lo > 0.0 or hi < 0.0):
            accepted.append(found)
        return bool(accepted)  # the solve stops at the first pair accepted

    lam, y, converged = _lanczos(lambda v: apply(scale * v) / scale, op.dim, accept)
    if not converged:
        raise EigenConvergenceError(
            "principal_eigenpair: Lanczos solve did not converge",
            lam, scale * y, count, math.inf,
        )
    x, resid, enclosure = accepted[0] if accepted else certify(lam, y)
    if not resid < RESIDUAL_TOL:
        raise EigenConvergenceError(
            f"principal_eigenpair: eigen-residual {resid:.3e} above {RESIDUAL_TOL:g}",
            lam, x, count, resid,
        )
    floor = float(x.min())
    if floor < -1e-10:
        raise EigenConvergenceError(
            f"principal_eigenpair: converged vector is not positive (min {floor:.3e})",
            lam, x, count, resid,
        )
    x = np.maximum(x, 1e-300)
    return Eigenpair(
        lambda_p=lam, phi1=x[: op.n], phi2=x[op.n:], x=op.x,
        iterations=count, residual=resid, enclosure=enclosure,
    )


def scalar_principal(d: float, a_diag: float, kernel: Kernel, l: float,
                     num_cells: int | None = None) -> float:
    """Principal eigenvalue of the scalar operator d (K - j) + a_diag on
    [0, l]: the equal-species case `scalar_spec` of `principal_eigenpair`."""
    return principal_eigenpair(scalar_spec(d, a_diag, kernel, l, num_cells)).lambda_p


# ---------------------------------------------------------------------------
# model-facing wrappers
# ---------------------------------------------------------------------------

def lambda1_spec(l: float, params: ModelParams, num_cells: int | None = None) -> OperatorSpec:
    nl = params.nonlinearity
    return OperatorSpec(
        l=l, d1=params.d1, d2=params.d2,
        a11=-params.a, a22=-params.b, a12=nl.hp0, a21=nl.gp0,
        kernel1=params.kernel1, kernel2=params.kernel2, num_cells=num_cells,
    )


def lambda2_spec(l: float, params: ModelParams, num_cells: int | None = None) -> OperatorSpec:
    """Slope-normalized companion operator; self-adjoint since both couplings are 1."""
    nl = params.nonlinearity
    hp, gp = nl.hp0, nl.gp0
    return OperatorSpec(
        l=l, d1=params.d1 / hp, d2=params.d2 / gp,
        a11=-params.a / hp, a22=-params.b / gp, a12=1.0, a21=1.0,
        kernel1=params.kernel1, kernel2=params.kernel2, num_cells=num_cells,
    )


def scalar_spec(d: float, a_diag: float, kernel: Kernel, l: float,
                num_cells: int | None = None) -> OperatorSpec:
    """Both species d (K - j) + (a_diag - 1) with unit couplings.

    With A = d (K - j) + (a_diag - 1) I and (kappa, phi) its principal
    pair, [[A, I], [I, A]] (phi, phi) = (kappa + 1) (phi, phi), and (phi,
    phi) > 0 is its principal eigenvector, so the principal eigenvalue of
    this operator is kappa + 1, that of d (K - j) + a_diag.
    """
    return OperatorSpec(
        l=l, d1=d, d2=d, a11=a_diag - 1.0, a22=a_diag - 1.0, a12=1.0, a21=1.0,
        kernel1=kernel, kernel2=kernel, num_cells=num_cells,
    )


def lambda1(l: float, params: ModelParams, num_cells: int | None = None) -> float:
    """Principal eigenvalue of the linearization at zero on [0, l]."""
    return principal_eigenpair(lambda1_spec(l, params, num_cells)).lambda_p


def lambda2(l: float, params: ModelParams, num_cells: int | None = None) -> float:
    """Principal eigenvalue of the slope-normalized operator on [0, l].

    Shares its sign with lambda1 at every l, which makes it the cheaper
    dial for dispersal-rate thresholds.
    """
    return principal_eigenpair(lambda2_spec(l, params, num_cells)).lambda_p


@dataclass(frozen=True)
class CriticalLength:
    """``bracket_lambdas`` are lambda1 at the two ends of ``bracket`` and
    ``bracket_enclosures`` enclose it there (see `Eigenpair`); ``value`` is
    one of the ends unless lambda1 is exactly the target there."""

    value: float
    lam_at_value: float
    bracket: tuple[float, float]
    num_cells: int
    evaluations: int
    bracket_lambdas: tuple[float, float]
    bracket_enclosures: tuple[tuple[float, float], tuple[float, float]]


def critical_length(params: ModelParams, lo: float = 0.01, hi_start: float = 1.0,
                    lam_tol: float = 5e-7, num_cells: int | None = None,
                    target: float = 0.0) -> CriticalLength:
    """Root of l -> lambda1(l) - target by Brent's method at a pinned resolution.

    The upper end doubles from hi_start until the eigenvalue clears the
    target.  The resolution policy jumps with l, and near the root those
    jumps exceed the certificate tolerance, so once the bracket is fixed
    every evaluation uses one resolution (the policy at the upper end,
    where the last doubling step already solved); the lower end is solved
    again only when its own resolution differs.  The root is located to
    ROOT_XTOL and |lambda1(value) - target| < lam_tol is guaranteed.
    Raises ValueError with a regime message when no sign change exists,
    and RuntimeError (a solver failure) when the pinned resolution loses
    it or the guarantee fails.
    """
    solves = []  # (l, enclosure) of every evaluation, in order

    def lam(l: float, cells: int | None) -> float:
        pair = principal_eigenpair(lambda1_spec(l, params, cells))
        solves.append((l, pair.enclosure))
        return pair.lambda_p - target

    # lambda1 increases toward the large-domain rate, so a root above lo
    # exists exactly when that limit clears the target.  K - diag(j) has
    # nonpositive row sums, so the discrete lambda1(lo) <= gammaA too, and
    # testing this first never changes which refusal fires
    if derived_constants(params).gammaA <= target:
        raise ValueError("no threshold length: vanishing persists at every tested length")
    f_lo = lam(lo, num_cells)
    if f_lo >= 0:
        raise ValueError("no threshold length: spreading persists for every front position")
    hi = max(hi_start, 2 * lo)
    while (f_hi := lam(hi, num_cells)) <= 0:
        hi *= 2.0
        if hi > 5000.0:
            raise ValueError("no threshold length: vanishing persists at every tested length")
    cells = num_cells if num_cells is not None else default_cells(hi)
    # a solve is deterministic, so lo's value stands when it already has
    # the pinned resolution
    if num_cells is None and default_cells(lo) != cells:
        f_lo = lam(lo, cells)
    if f_lo >= 0:
        raise RuntimeError("bracket lost after pinning the resolution")
    value, f_value, bracket, f_lo, f_hi = _brentq(lambda l: lam(l, cells), lo, hi, ROOT_XTOL,
                                                  fa=f_lo, fb=f_hi)
    if not abs(f_value) < lam_tol:
        raise RuntimeError(
            f"critical length certificate out of tolerance: |lambda| = {abs(f_value):.3e}"
        )
    enclosures = dict(solves)  # a solve at the pinned resolution replaces an earlier one
    return CriticalLength(value=value, lam_at_value=f_value + target, bracket=bracket,
                          num_cells=cells, evaluations=len(solves),
                          bracket_lambdas=(f_lo + target, f_hi + target),
                          bracket_enclosures=(enclosures[bracket[0]], enclosures[bracket[1]]))


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    variable: str
    value: float
    lambda_p: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class SweepResult:
    variable: str
    points: tuple[SweepPoint, ...]
    violations: tuple[str, ...]
    errors: tuple[tuple[float, str], ...]


_SWEEP_DIRECTION = {"l": 1, "a11": 1, "a22": 1, "a12": 1, "a21": 1, "d1": -1, "d2": -1}


def sweep(spec: OperatorSpec, variable: str, values) -> SweepResult:
    """Eigenvalue sweep over one spec field, with monotonicity screening.

    Domain-length sweeps re-derive the resolution policy per point; solver
    failures at single points are recorded and skipped rather than fatal,
    unless no point succeeds: then the first failure is raised.
    """
    if variable not in _SWEEP_DIRECTION:
        raise ValueError(f"cannot sweep over {variable!r}")
    values = [float(v) for v in values]
    bad = [v for v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"sweep values must be finite, got {bad[0]:g}")
    points: list[SweepPoint] = []
    failed: list[tuple[float, EigenConvergenceError | EigenGridError]] = []
    for v in values:
        kw = {variable: v}
        if variable == "l":
            kw["num_cells"] = default_cells(v)
        try:
            pair = principal_eigenpair(replace(spec, **kw))
        except (EigenConvergenceError, EigenGridError) as exc:
            failed.append((v, exc))
            continue
        points.append(SweepPoint(variable, v, pair.lambda_p, pair.iterations, pair.residual))
    if failed and not points:
        raise failed[0][1]
    direction = _SWEEP_DIRECTION[variable]
    violations = []
    for prev, cur in zip(points, points[1:]):
        increasing = (cur.value > prev.value)
        step = (cur.lambda_p - prev.lambda_p) * (1 if increasing else -1) * direction
        if step < -1e-9:
            violations.append(
                f"{variable}: lambda_p moved {step:+.3e} against the expected trend "
                f"between {prev.value:g} and {cur.value:g}"
            )
    return SweepResult(variable=variable, points=tuple(points),
                       violations=tuple(violations),
                       errors=tuple((v, str(e)) for v, e in failed))
