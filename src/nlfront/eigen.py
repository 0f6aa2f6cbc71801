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
eigenfunction is positive).  Roots of the eigenvalue in a parameter are
found by `model._brentq`, the one root finder of the package, to the
absolute tolerance ROOT_XTOL.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grids import Discretization, KernelConvolver, default_cells
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
    "critical_length",
    "CriticalLength",
    "sweep",
    "SweepPoint",
    "SweepResult",
]

SIGN_BAND = 1e-6  # |eigenvalue| below this is treated as zero (critical)
RESIDUAL_TOL = 1e-10
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
    lambda_p: float
    phi1: np.ndarray
    phi2: np.ndarray
    x: np.ndarray
    iterations: int
    residual: float


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

    def matvec(self, w: np.ndarray) -> np.ndarray:
        uv = w.reshape(2, self.n)
        out = (self.diag * uv + self.coupling * uv[::-1]
               + self.rates * self.grid.convolve(uv))
        return out.ravel()

    def dense(self) -> np.ndarray:
        s, n = self.spec, self.n
        blocks = KernelConvolver((s.kernel1, s.kernel2), self.dx, n).dense()
        own = [d * block + np.diag(diag)
               for d, block, diag in zip((s.d1, s.d2), blocks, self.diag)]
        return np.block([[own[0], s.a12 * np.eye(n)], [s.a21 * np.eye(n), own[1]]])


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

def _lanczos(apply, dim: int):
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
            if (size < m or m == dim
                    or abs(beta * vecs[-1, -1]) <= EPS * float(np.max(np.abs(vals)))):
                return theta, y, True
            basis[:keep] = vecs[:, -keep:].T @ basis[:m]
            basis[keep] = basis[m]
            proj[:] = 0.0
            proj[range(keep), range(keep)] = vals[-keep:]
            start = keep
    return theta, y, False


def _principal(matvec, scale: np.ndarray, label: str):
    """Largest eigenvalue of L and its positive eigenvector, sup-norm 1.

    ``scale`` is the diagonal of D with D^-1 L D symmetric; the Lanczos
    solve runs on that matrix and the pair is certified on L.  Returns
    (lambda, x, matvecs, residual).
    """
    count = 0

    def apply(w: np.ndarray) -> np.ndarray:
        nonlocal count
        count += 1
        return matvec(w)

    lam, y, converged = _lanczos(lambda v: apply(scale * v) / scale, scale.size)
    x = scale * y
    if not converged:
        raise EigenConvergenceError(
            f"{label}: Lanczos solve did not converge", lam, x, count, math.inf,
        )
    x = x / x[np.argmax(np.abs(x))]
    resid = float(np.max(np.abs(apply(x) - lam * x)))
    if not resid < RESIDUAL_TOL:
        raise EigenConvergenceError(
            f"{label}: eigen-residual {resid:.3e} above {RESIDUAL_TOL:g}",
            lam, x, count, resid,
        )
    floor = float(x.min())
    if floor < -1e-10:
        raise EigenConvergenceError(
            f"{label}: converged vector is not positive (min {floor:.3e})",
            lam, x, count, resid,
        )
    return lam, np.maximum(x, 1e-300), count, resid


def principal_eigenpair(spec: OperatorSpec) -> Eigenpair:
    """Principal eigenvalue and positive eigenfunction pair, sup-norm 1.

    Convergence contract: the sup-norm eigen-residual on the assembled
    operator is below 1e-10; ``iterations`` counts operator applications.
    """
    op = assemble(spec)
    scale = np.ones(op.dim)
    scale[op.n:] = math.sqrt(spec.a21 / spec.a12)
    lam, x, iters, resid = _principal(op.matvec, scale, "principal_eigenpair")
    return Eigenpair(
        lambda_p=lam, phi1=x[: op.n], phi2=x[op.n:], x=op.x,
        iterations=iters, residual=resid,
    )


def scalar_principal(d: float, a_diag: float, kernel: Kernel, l: float,
                     num_cells: int | None = None) -> float:
    """Principal eigenvalue of the scalar operator d (K - j) + a_diag on [0, l]."""
    if d <= 0:
        raise EigenGridError("scalar problem needs d > 0")
    n = num_cells if num_cells is not None else default_cells(l)
    if n < 8:
        raise EigenGridError(f"refusing to assemble: num_cells={n} is below the minimum of 8")
    grid = Discretization((kernel,), l / n, n)
    diag = -d * grid.j[0] + a_diag

    def matvec(u):
        return d * grid.convolve(u[None])[0] + diag * u

    lam, _, _, _ = _principal(matvec, np.ones(n), "scalar_principal")
    return lam


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
    value: float
    lam_at_value: float
    bracket: tuple[float, float]
    num_cells: int
    evaluations: int


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
    evals = 0

    def lam(l: float, cells: int | None) -> float:
        nonlocal evals
        evals += 1
        return lambda1(l, params, num_cells=cells) - target

    f_lo = lam(lo, num_cells)
    if f_lo >= 0:
        raise ValueError("no threshold length: spreading persists for every front position")
    # lambda1 increases toward the large-domain rate, so a root above lo
    # exists exactly when that limit clears the target
    if derived_constants(params).gammaA <= target:
        raise ValueError("no threshold length: vanishing persists at every tested length")
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
    value, f_value, bracket, _, _ = _brentq(lambda l: lam(l, cells), lo, hi, ROOT_XTOL,
                                            fa=f_lo, fb=f_hi)
    if not abs(f_value) < lam_tol:
        raise RuntimeError(
            f"critical length certificate out of tolerance: |lambda| = {abs(f_value):.3e}"
        )
    return CriticalLength(value=value, lam_at_value=f_value + target, bracket=bracket,
                          num_cells=cells, evaluations=evals)


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
