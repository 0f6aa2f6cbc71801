"""Shared parameter sets.

P1 is the workhorse configuration: unit rates, unit-scale laplace kernels,
saturating interactions with slope 2 at zero.  Its derived constants have
closed forms (large-domain growth rate exactly 1, small-domain rate exactly
1/2), which makes it the anchor for most eigenvalue and speed checks.  The
d=6 variant sits in the regime where the outcome depends on the front
response rates; the weak-interaction variant has no positive equilibrium.
"""
import numpy as np
import pytest

from nlfront.grids import KernelConvolver
from nlfront.model import Kernel, ModelParams, Nonlinearity, initial_profile

LAPLACE = Kernel("laplace", 1.0)


def params_with(**overrides) -> ModelParams:
    """P1 with selected fields replaced; profiles follow h0 automatically."""
    base = dict(
        d1=1.0, d2=1.0, a=1.0, b=1.0, mu1=1.0, mu2=1.0, h0=2.0,
        kernel1=LAPLACE, kernel2=LAPLACE,
        nonlinearity=Nonlinearity("saturating", 2.0, 2.0),
    )
    profiles = {k: overrides.pop(k) for k in ("u0", "v0") if k in overrides}
    base.update(overrides)
    h0 = base["h0"]
    base["u0"] = profiles.get("u0", initial_profile("tent", 1.0, h0))
    base["v0"] = profiles.get("v0", initial_profile("tent", 0.5, h0))
    return ModelParams(**base)


def dense_operator(op) -> np.ndarray:
    """The assembled eigen operator `op` as a dense matrix, built from the
    convolvers' Toeplitz matrices: a reference for its matvec."""
    s, n = op.spec, op.n
    blocks = KernelConvolver((s.kernel1, s.kernel2), op.dx, n).dense()
    own = [d * block + np.diag(diag) for d, block, diag in zip((s.d1, s.d2), blocks, op.diag)]
    return np.block([[own[0], s.a12 * np.eye(n)], [s.a21 * np.eye(n), own[1]]])


@pytest.fixture(scope="session")
def laplace() -> Kernel:
    return LAPLACE


@pytest.fixture(scope="session")
def p1() -> ModelParams:
    return params_with()


@pytest.fixture(scope="session")
def p1_d6() -> ModelParams:
    """Slow-growth variant: spreading is decided by mu1, mu2 (or by h0)."""
    return params_with(d1=6.0, d2=6.0)


@pytest.fixture(scope="session")
def vanish_params() -> ModelParams:
    """Sub-threshold interactions: every run dies out."""
    return params_with(a=2.0, b=2.0, nonlinearity=Nonlinearity("saturating", 1.0, 1.0))
