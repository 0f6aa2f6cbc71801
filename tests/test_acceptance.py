"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single pass/fail line under ``pytest -v``.  Anchors with
no closed form are frozen solver values, noted inline where they appear.
These are the expensive runs (fine grids, long horizons, the whole preset
catalogue twice); the per-module suites cover the same code paths at desk
scale.
"""
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_operator, params_with
from nlfront import cli, criteria, eigen, freeboundary, semiwave, steady
from nlfront.model import Kernel, derived_constants, initial_profile

HEAVY = Kernel("cauchy", 1.0, exponent=1.3)


def test_growth_rate_reaches_closed_form_limits_at_extreme_lengths(p1):
    t0 = time.monotonic()
    cons = derived_constants(p1)
    assert cons.gammaA == pytest.approx(1.0, abs=1e-12)
    assert cons.gammaB == pytest.approx(0.5, abs=1e-12)
    assert abs(eigen.lambda1(200.0, p1) - cons.gammaA) < 0.05
    assert abs(eigen.lambda1(0.01, p1) - cons.gammaB) < 0.05
    assert time.monotonic() - t0 < 60.0


def test_growth_rate_is_monotone_in_length_and_pair_keeps_one_sign(p1):
    t0 = time.monotonic()
    grid = np.logspace(np.log10(0.01), np.log10(200.0), 30)
    lam1 = np.array([eigen.lambda1(l, p1) for l in grid])
    lam2 = np.array([eigen.lambda2(l, p1) for l in grid])
    assert np.all(np.diff(lam1) > 0.0)
    assert np.all(np.sign(lam1) == np.sign(lam2))
    # both linearized gains equal 2, so the weighted comparison band
    # lam1/max_gain <= lam2 <= lam1/min_gain pinches to a single value
    assert np.max(np.abs(lam2 - lam1 / 2.0)) < 1e-6
    spec = eigen.lambda1_spec(2.0, p1, num_cells=400)
    lam_dense = float(np.max(np.linalg.eigvals(dense_operator(eigen.assemble(spec))).real))
    assert abs(eigen.principal_eigenpair(spec).lambda_p - lam_dense) < 1e-10
    assert time.monotonic() - t0 < 120.0


def test_extreme_dispersal_rates_match_scalar_reductions(p1, laplace):
    # fast second species: the pair rate approaches the scalar rate of the
    # second equation alone (frozen gap 0.0202 at rate 1e4)
    zeta1 = eigen.scalar_principal(1.0, -1.0, laplace, 10.0)
    assert abs(eigen.lambda1(10.0, params_with(d2=1e4)) - zeta1) < 0.05
    # no dispersal in the first species: the rate solves a quadratic in the
    # second equation's scalar rate and the coupling gains
    spec = eigen.lambda1_spec(2.0, params_with(d1=0.0))
    zeta = eigen.scalar_principal(spec.d2, spec.a22, laplace, 2.0,
                                  num_cells=spec.num_cells)
    lam_closed = 0.5 * (spec.a11 + zeta
                        + math.sqrt((spec.a11 - zeta) ** 2
                                    + 4.0 * spec.a12 * spec.a21))
    assert abs(eigen.principal_eigenpair(spec).lambda_p - lam_closed) < 1e-8
    # measured: the equal-rate value at l=10 is -0.98, and since
    # lambda(d, d) = d * kappa1(10) + 1 with kappa1(10) = -0.0199 the -5
    # crossing sits near d = 303, the bound below fails at d = 100.
    # Kept as stated; see the acceptance notes in README.md.
    assert eigen.lambda1(10.0, params_with(d1=100.0, d2=100.0)) < -5.0


def test_steady_states_converge_grow_with_length_and_are_unique(p1):
    t0 = time.monotonic()
    cons = derived_constants(p1)
    s10 = steady.solve_steady(10.0, p1)
    s20 = steady.solve_steady(20.0, p1)
    assert s10.residual < 1e-9 and s20.residual < 1e-9
    for field in ("u", "v"):
        small = getattr(s10, field)
        big = np.interp(s10.x, s20.x, getattr(s20, field))
        assert np.all(big > small)
    # frozen equilibrium: (U, V) = (1.2326523, 1.6063805)
    assert cons.U == pytest.approx(1.2326523434716505, abs=1e-9)
    assert cons.V == pytest.approx(1.6063805407948233, abs=1e-9)
    s100 = steady.solve_steady(100.0, p1)
    inner = (s100.x > 25.0) & (s100.x < 75.0)
    assert np.max(np.abs(s100.u[inner] - cons.U)) / cons.U < 0.02
    assert np.max(np.abs(s100.v[inner] - cons.V)) / cons.V < 0.02
    dom = steady.FixedDomain(10.0, p1, 400)
    rng = np.random.default_rng(42)
    finals = []
    for _ in range(20):
        u = rng.uniform(0.01, 2.0 * cons.U, 400)
        v = rng.uniform(0.01, 2.0 * cons.V, 400)
        for _ in range(100000):
            u2, v2 = dom.gamma(u, v)
            gap = max(float(np.max(np.abs(u2 - u))), float(np.max(np.abs(v2 - v))))
            u, v = u2, v2
            if gap < 1e-12:
                break
        finals.append(u)
    spread = max(float(np.max(np.abs(f - finals[0]))) for f in finals[1:])
    assert spread < 1e-8
    assert time.monotonic() - t0 < 120.0


def test_subcritical_decay_is_exponential_and_critical_decay_algebraic(p1_d6):
    t0 = time.monotonic()
    l = 1.7742
    lam = eigen.lambda1(l, p1_d6)
    assert abs(lam + 0.2) < 0.02
    _, fit = steady.evolve_fixed(
        l, p1_d6, initial_profile("tent", 1.0, l), initial_profile("tent", 0.5, l),
        horizon=150.0)
    assert fit.mode == "exponential"
    assert 0.16 <= fit.k <= 0.22
    # at the bisected critical length the decay loses its exponential rate;
    # eigenvalue root and evolution share one grid so the near-zero rate
    # certificate transfers
    crit = eigen.critical_length(p1_d6, num_cells=200)
    _, fit_c = steady.evolve_fixed(
        crit.value, p1_d6,
        initial_profile("tent", 1.0, crit.value),
        initial_profile("tent", 0.5, crit.value),
        horizon=150.0, num_cells=200)
    assert fit_c.mode == "algebraic"
    assert fit_c.r_squared > 0.99
    assert time.monotonic() - t0 < 120.0


def test_dichotomy_verdicts_and_threshold_certificates(p1, p1_d6, vanish_params):
    t0 = time.monotonic()
    # no-growth regime: the front never clears its mass ceiling and the
    # run is classified as vanishing
    tr = freeboundary.simulate(vanish_params, horizon=60.0)
    bound = freeboundary.front_mass_bound(tr, vanish_params)
    assert np.all(tr.h <= bound + 1e-9)
    assert freeboundary.classify(vanish_params).verdict == "vanishing"
    # strong-growth regime: the state fills to the equilibrium level
    cons = derived_constants(p1)
    tr2 = freeboundary.simulate(p1, horizon=200.0)
    assert abs(tr2.final.u[0] - cons.U) / cons.U < 0.01
    # squeeze regime thresholds, each with its certificate
    ell = criteria.find_ell_star(p1_d6)
    assert abs(ell.certificate["at_value"]) < 1e-6
    mu = criteria.find_mu_star(p1_d6)
    low = replace(p1_d6, mu1=0.9 * mu.value, mu2=0.9 * mu.value)
    high = replace(p1_d6, mu1=1.1 * mu.value, mu2=1.1 * mu.value)
    assert freeboundary.classify(low).verdict == "vanishing"
    assert freeboundary.classify(high).verdict == "spreading"
    rep = criteria.find_d_thresholds(p1, "linked")
    assert rep.extras["d1_reproduction"] == pytest.approx(2.0, abs=1e-12)
    (star,) = rep.thresholds
    at_star = replace(p1, d1=star.value, d2=star.value)
    assert abs(eigen.lambda2(p1.h0, at_star)) < 1e-6
    assert time.monotonic() - t0 < 600.0


def test_front_speed_matches_semiwave_and_heavy_tails_accelerate(p1):
    t0 = time.monotonic()
    wave = semiwave.solve_semiwave(p1)
    tr = freeboundary.simulate(p1, horizon=200.0)
    window = tr.t >= 150.0
    observed = float(np.mean(tr.h[window] / tr.t[window]))
    assert abs(observed - wave.c) / wave.c < 0.05
    c60 = semiwave.solve_semiwave(p1, L=60.0).c
    c120 = semiwave.solve_semiwave(p1, L=120.0).c
    assert abs(c120 - c60) / c60 < 0.005
    # heavy tails in both kernels: the front outruns every linear law.
    # Response rates 0.2 keep the run at desk scale; the superlinear
    # growth is driven by the kernel tails, not the rates.
    heavy = params_with(kernel1=HEAVY, kernel2=HEAVY, mu1=0.2, mu2=0.2)
    tr_h = freeboundary.simulate(heavy, horizon=200.0, dx=0.25)
    h100 = float(np.interp(100.0, tr_h.t, tr_h.h))
    h200 = float(tr_h.h[-1])
    assert h200 / 200.0 > 1.2 * (h100 / 100.0)
    # truncated-kernel speeds keep climbing instead of stabilizing
    table = semiwave.speed_limits(params_with(kernel1=HEAVY, kernel2=HEAVY),
                                  sigmas=[0.01], ns=[20, 40, 80, 160])
    assert table.accelerated
    speeds = table.speeds(0.01)
    assert np.all(np.diff(speeds) > 0.0)
    assert speeds[-1] / speeds[0] > 3.0
    assert time.monotonic() - t0 < 600.0


def test_flux_mismatch_positive_zero_and_linear_in_amplitude(p1):
    t0 = time.monotonic()
    lengths = (0.5, 1.0, 2.0, 4.0)
    rows = freeboundary.symmetrization_mismatch(p1, h0_values=lengths)
    assert all(r.residual > 0.0 for r in rows)
    zero = freeboundary.symmetrization_mismatch(
        p1, h0_values=lengths, profile=lambda h0: (lambda x: np.zeros_like(x)))
    assert all(r.residual == 0.0 for r in zero)

    def tent(amp):
        return lambda h0: (lambda x: amp * np.maximum(0.0, 1.0 - np.abs(x) / h0))

    one = freeboundary.symmetrization_mismatch(p1, h0_values=lengths, profile=tent(1.0))
    two = freeboundary.symmetrization_mismatch(p1, h0_values=lengths, profile=tent(2.0))
    for a, b in zip(one, two):
        assert b.residual == pytest.approx(2.0 * a.residual, rel=1e-12)
    assert time.monotonic() - t0 < 10.0


def test_every_preset_rerun_is_byte_identical(tmp_path):
    for name in cli.presets():
        outs = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"{name}-{tag}.json"
            cfg.write_text(json.dumps({"preset": name}))
            out = tmp_path / f"{name}-{tag}"
            t0 = time.monotonic()
            assert cli.run(cfg, out_dir=out) == 0
            assert time.monotonic() - t0 < 300.0, f"preset {name} over budget"
            outs.append(out)
        first = sorted(p for p in outs[0].iterdir() if p.is_file())
        second = sorted(p for p in outs[1].iterdir() if p.is_file())
        assert [p.name for p in first] == [p.name for p in second]
        assert first, f"preset {name} wrote nothing"
        for fa, fb in zip(first, second):
            assert fa.read_bytes() == fb.read_bytes(), f"{name}/{fa.name} differs"
