"""Threshold searches, regime reports, and their certificates."""
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_operator, params_with
from nlfront import criteria, eigen, freeboundary as fb
from nlfront.model import derived_constants


def test_threshold_result_validation():
    with pytest.raises(ValueError):
        criteria.ThresholdResult("ell_sharp", 1.0, (0.9, 1.1), {})
    r = criteria.ThresholdResult("ell_star", 1.0, (0.99998, 1.00002), {"kind": "x"})
    assert r.width_ok
    wide = criteria.ThresholdResult("ell_star", 1.0, (0.5, 1.5), {"kind": "x"})
    assert not wide.width_ok
    d = r.to_dict()
    assert d["name"] == "ell_star" and d["bracket"] == [0.99998, 1.00002]


def test_ell_star_search(p1_d6):
    res = criteria.find_ell_star(p1_d6)
    assert res.name == "ell_star"
    assert abs(res.value - 2.187040) < 5e-6
    assert res.width_ok
    assert abs(res.certificate["at_value"]) < 1e-6
    assert res.certificate["below"] < 0.0 < res.certificate["above"]
    assert "probe_offset" not in res.certificate
    # below/above are lambda1 at the bracket ends, inside their enclosures
    cells = res.certificate["num_cells"]
    ends = [eigen.lambda1(l, p1_d6, num_cells=cells) for l in res.bracket]
    assert ends == [res.certificate["below"], res.certificate["above"]]
    for lam, (lo, hi) in zip(ends, res.certificate["bracket_enclosures"]):
        assert lo <= lam <= hi


def test_ell_star_refusals(p1, vanish_params):
    with pytest.raises(ValueError, match="no threshold, spreading for all h0"):
        criteria.find_ell_star(p1)
    with pytest.raises(ValueError, match="no threshold, vanishing"):
        criteria.find_ell_star(vanish_params)


def test_spreading_just_above_ell_star(p1_d6):
    ell = criteria.find_ell_star(p1_d6).value
    out = fb.classify(params_with(d1=6.0, d2=6.0, h0=1.05 * ell), t_max=200.0)
    assert out.verdict == "spreading"


def test_seed_mu_lower_value(p1_d6):
    # the initial-data barrier through freeboundary._barrier, pinned bit for
    # bit; ell* sets the barrier's eps, so the seed moves with ell*'s bits
    # (and with the eigen product's and the Lanczos stop's), while the
    # eigvalsh check below holds whatever the bits
    ell = criteria.find_ell_star(p1_d6).value
    seed = criteria._seed_mu_lower(p1_d6, ell, lambda s: s)
    assert seed == 0.004394091295083229
    bar = fb._barrier(p1_d6, p1_d6.h0, ell, None, p1_d6.u0, p1_d6.v0, m_floor=1.0)
    # the flux factor m(h1) in place of the h1 of all kernel mass escaping
    # raises the seed by h1 / m(h1), and the seed still vanishes
    all_escape = 0.5 * bar.eps * bar.delta * p1_d6.h0 / (bar.M * bar.h1)
    assert seed == pytest.approx(all_escape * bar.h1 / bar.flux_factor, rel=1e-12, abs=0.0)
    assert fb.classify(replace(p1_d6, mu1=seed, mu2=seed)).verdict == "vanishing"
    # the barrier's lambda1(h1) is the top eigenvalue of the symmetrized
    # assembled operator D^-1 L D, D = diag(I, sqrt(a21/a12) I)
    spec = eigen.lambda1_spec(bar.h1, p1_d6)
    op = eigen.assemble(spec)
    scale = np.ones(op.dim)
    scale[op.n:] = math.sqrt(spec.a21 / spec.a12)
    sym = dense_operator(op) * scale[None, :] / scale[:, None]
    top = float(np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1])
    assert abs(-bar.delta - top) < 1e-12


def test_mu_star_lists_every_probe(p1_d6):
    # a short horizon leaves the first bisection probe (0.1288) undecided,
    # which ends the search early: seed, upper end, two halvings of it, one
    # bisection probe, and no probe after the search
    res = criteria.find_mu_star(p1_d6, t_max=30.0)
    cert = res.certificate
    probes = cert["probes"]
    mus = [p["mu1"] for p in probes]
    assert mus[0] == criteria._seed_mu_lower(p1_d6, criteria.find_ell_star(p1_d6).value,
                                             lambda s: s)
    assert len(probes) == 5 and cert["undecided_at"] == mus[-1] and "pair" not in cert
    # below/above describe the probes at the bracket ends
    ends = [probes[mus.index(mu)] for mu in res.bracket]
    assert [p["verdict"] for p in ends] == [cert["below"], cert["above"]]
    assert [cert["below"], cert["above"]] == ["vanishing", "spreading"]
    assert [p["certificate"] for p in ends] == list(cert["certificates"])
    assert [p["t_decided"] for p in ends] == list(cert["t_decided"])
    assert probes[0]["certificate"] == "barrier" and probes[1]["certificate"] == "eigenvalue"
    for p, barrier in zip(ends, cert["barriers"]):
        assert (barrier is not None) == (p["certificate"] == "barrier")
    assert res.to_dict()["certificate"]["probes"][0]["verdict"] == "vanishing"
    # the certificate rests on the solution's monotonicity in mu: past the
    # bracket ends the verdicts hold at the same horizon
    lo, hi = res.bracket
    for mu, verdict in ((0.9 * lo, "vanishing"), (1.1 * hi, "spreading")):
        assert fb.classify(replace(p1_d6, mu1=mu, mu2=mu), t_max=30.0).verdict == verdict


def test_mu_star_searches_the_watch_length_once(p1_d6, monkeypatch):
    # lambda1 does not depend on mu, so the search finds classify's watch
    # length once; each probe still matches a classify run that finds it anew
    targets = []
    search = eigen.critical_length

    def counted(params, *args, **kwargs):
        targets.append(kwargs.get("target", 0.0))
        return search(params, *args, **kwargs)

    monkeypatch.setattr(eigen, "critical_length", counted)
    probes = criteria.find_mu_star(p1_d6, t_max=30.0).certificate["probes"]
    assert targets.count(2e-6) == 1
    for probe in probes:
        out = fb.classify(replace(p1_d6, mu1=probe["mu1"], mu2=probe["mu1"]), t_max=30.0)
        assert (out.verdict, out.t_decided, out.certificate) == (
            probe["verdict"], probe["t_decided"], probe["certificate"])
    assert targets.count(2e-6) == 1 + len(probes)


def test_mu_star_preconditions(p1, p1_d6):
    with pytest.raises(ValueError, match="spreading for all h0"):
        criteria.find_mu_star(p1)
    big_front = params_with(d1=6.0, d2=6.0, h0=3.0)
    with pytest.raises(ValueError, match="threshold undefined"):
        criteria.find_mu_star(big_front)
    with pytest.raises(ValueError, match="map 0 to 0"):
        criteria.find_mu_star(p1_d6, link=lambda m: m + 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        criteria.find_mu_star(p1_d6, link=lambda m: -m)


def test_nu1_matches_degenerate_eigenvalue(p1):
    for d2 in (1.0, 5.0, 20.0):
        closed = criteria.nu1(d2, p1)
        lam = eigen.lambda1(p1.h0, replace(p1, d1=0.0, d2=d2))
        assert abs(closed - lam) < 0.05


def test_nu1_decreasing_with_floor(p1):
    vals = [criteria.nu1(d2, p1) for d2 in (1.0, 5.0, 20.0, 200.0, 1000.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert -1.0 < vals[-1] < -0.9  # limit is -a from below never crossed
    with pytest.raises(ValueError, match="d2 must be positive"):
        criteria.nu1(0.0, p1)


def test_d_thresholds_linked(p1):
    rep = criteria.find_d_thresholds(p1, "linked")
    assert rep.mode == "linked"
    assert abs(rep.extras["d1_reproduction"] - 2.0) < 1e-12
    (star,) = rep.thresholds
    assert star.name == "d1_star"
    assert abs(star.value - 5.531624) < 5e-5
    assert star.width_ok
    assert star.certificate["below"] * star.certificate["above"] < 0.0
    probe = replace(p1, d1=star.value, d2=star.value)
    assert abs(eigen.lambda2(p1.h0, probe)) < 1e-6
    # the certificate's end values are lambda2 at the bracket ends
    ends = [eigen.lambda2(p1.h0, replace(p1, d1=d, d2=d), num_cells=star.certificate["num_cells"])
            for d in star.bracket]
    assert ends == [star.certificate["below"], star.certificate["above"]]


def test_d_thresholds_small_d2(p1):
    rep = criteria.find_d_thresholds(p1, "fixed_d2_small")  # d2 = 1 < Lambda
    assert abs(rep.extras["d1_reproduction"] - 10.0 / 3.0) < 1e-9
    (hat,) = rep.thresholds
    assert hat.name == "d1_hat"
    assert abs(hat.value - 13.207296) < 5e-5
    assert "front response rates decide" in rep.note


def test_d_thresholds_mid_d2(p1):
    rep = criteria.find_d_thresholds(params_with(d2=10.0), "fixed_d2_mid")
    names = [t.name for t in rep.thresholds]
    assert names == ["d2_under", "d1_tilde"]
    under, tilde = rep.thresholds
    assert abs(under.value - 16.594882) < 5e-5
    assert abs(tilde.value - 2.348771) < 5e-5
    assert tilde.certificate["below"] * tilde.certificate["above"] < 0.0
    assert under.certificate["below"] * under.certificate["above"] < 0.0
    assert under.bracket[0] <= under.value <= under.bracket[1]


def test_d_thresholds_large_d2(p1):
    rep = criteria.find_d_thresholds(params_with(d2=20.0), "fixed_d2_large")
    assert "negative for all d1" in rep.note
    assert [d1 for d1, _ in rep.samples] == [0.01, 1.0, 100.0]
    assert all(lam < 0.0 for _, lam in rep.samples)


def test_d_thresholds_mode_mismatch(p1):
    with pytest.raises(ValueError, match="use fixed_d2_small"):
        criteria.find_d_thresholds(p1, "fixed_d2_mid")
    with pytest.raises(ValueError, match="use fixed_d2_mid"):
        criteria.find_d_thresholds(params_with(d2=10.0), "fixed_d2_large")
    with pytest.raises(ValueError, match="use fixed_d2_large"):
        criteria.find_d_thresholds(params_with(d2=20.0), "fixed_d2_small")
    with pytest.raises(ValueError, match="unknown mode"):
        criteria.find_d_thresholds(p1, "fixed")
    with pytest.raises(ValueError, match="reproduction ratio above 1"):
        criteria.find_d_thresholds(
            params_with(a=2.0, b=2.0,
                        nonlinearity=params_with().nonlinearity), "linked")


def test_decision_tree_spreading(p1):
    rep = criteria.decision_tree(p1)
    assert rep["verdict"] == "spreading"
    assert rep["R0"] == 4.0
    assert rep["certificates"][0]["kind"] == "reproduction"
    assert criteria.decision_tree(p1) == rep


def test_decision_tree_vanishing(vanish_params):
    rep = criteria.decision_tree(vanish_params)
    assert rep["verdict"] == "vanishing"
    cert = rep["certificates"][0]
    assert cert["kind"] == "front_bound"
    # tent data integrate exactly; the slow channel caps the excursion
    assert abs(cert["mass_initial"] - 1.25) < 1e-10
    assert abs(cert["h_limit"] - 4.5) < 1e-9


def test_decision_tree_vanishing_without_first_dispersal(vanish_params):
    # d1 = 0 with mu1 > 0 zeroes the d1/mu1 channel: no finite front bound
    rep = criteria.decision_tree(replace(vanish_params, d1=0.0))
    assert rep["verdict"] == "vanishing"
    assert rep["certificates"][0]["h_limit"] == math.inf


def test_decision_tree_squeeze_regime(p1_d6):
    rep = criteria.decision_tree(p1_d6)
    assert rep["verdict"] == "mu_dependent"
    assert abs(rep["ell_star"] - 2.187040) < 5e-6
    assert rep["certificates"][-1]["quantity"] == "lambda1(h0)"
    assert rep["certificates"][-1]["value"] < 0.0
    wide = criteria.decision_tree(params_with(d1=6.0, d2=6.0, h0=3.0))
    assert wide["verdict"] == "spreading"
    assert wide["certificates"][-1]["value"] > 0.0


def test_decision_tree_schema(p1, p1_d6, vanish_params):
    base = {"verdict", "R0", "Rstar", "gammaA", "gammaB", "thresholds", "certificates"}
    assert set(criteria.decision_tree(p1)) == base
    assert set(criteria.decision_tree(vanish_params)) == base
    assert set(criteria.decision_tree(p1_d6)) == base | {"ell_star"}


def test_in_regime_small_d2_skips_the_kappa_solve(p1, monkeypatch):
    # below Lambda the regime needs neither kappa1 nor d2_under
    calls = []
    spec = eigen.scalar_spec
    monkeypatch.setattr(eigen, "scalar_spec",
                        lambda *args: calls.append(args) or spec(*args))
    rep = criteria.find_d_thresholds(p1, "fixed_d2_small")
    assert [t.name for t in rep.thresholds] == ["d1_hat"] and calls == []


def test_d2_under_bracket_closes_to_its_tolerance():
    # nu1 near its root through the cancelling (-s + sqrt(disc)) / 2 was
    # exactly 0 at Brent's iterate, which left a 5.2e-5-wide bracket
    params = params_with(d2=10.0)
    kappa = eigen.scalar_principal(1.0, 0.0, params.kernel2, params.h0)
    under = criteria._d2_under_threshold(params, kappa, derived_constants(params).Lambda)
    lo, hi = under.bracket
    assert lo <= under.value <= hi and hi - lo <= 1e-12
    assert under.certificate["below"] > 0.0 > under.certificate["above"]


def test_mid_d2_thresholds_solve_no_spec_twice(monkeypatch):
    specs = []
    solve = eigen.principal_eigenpair
    monkeypatch.setattr(eigen, "principal_eigenpair",
                        lambda spec: specs.append(spec) or solve(spec))
    criteria.find_d_thresholds(params_with(d2=10.0), "fixed_d2_mid")
    assert len(specs) == len(set(specs)) > 0


@pytest.mark.parametrize("d2, mode", [(20.0, "fixed_d2_mid"), (10.0, "fixed_d2_large")])
def test_mode_mismatch_locates_d2_under_once(d2, mode, monkeypatch):
    calls = []
    search = criteria._d2_under_threshold
    monkeypatch.setattr(criteria, "_d2_under_threshold",
                        lambda *args: calls.append(args) or search(*args))
    with pytest.raises(ValueError, match="use fixed_d2_"):
        criteria.find_d_thresholds(params_with(d2=d2), mode)
    assert len(calls) == 1


@pytest.mark.parametrize("d2, mode, message", [
    (10.0, "fixed_d2_small", "mode fixed_d2_small needs d2 < 6, got d2 = 10; use fixed_d2_mid"),
    (20.0, "fixed_d2_small",
     "mode fixed_d2_small needs d2 < 6, got d2 = 20; use fixed_d2_large"),
    (1.0, "fixed_d2_mid",
     "mode fixed_d2_mid needs 6 <= d2 < 16.5949, got d2 = 1; use fixed_d2_small"),
    (20.0, "fixed_d2_mid",
     "mode fixed_d2_mid needs 6 <= d2 < 16.5949, got d2 = 20; use fixed_d2_large"),
    (1.0, "fixed_d2_large",
     "mode fixed_d2_large needs d2 >= 16.5949, got d2 = 1; use fixed_d2_small"),
    (10.0, "fixed_d2_large",
     "mode fixed_d2_large needs d2 >= 16.5949, got d2 = 10; use fixed_d2_mid"),
])
def test_mode_mismatch_messages(d2, mode, message):
    with pytest.raises(ValueError) as exc:
        criteria.find_d_thresholds(params_with(d2=d2), mode)
    assert str(exc.value) == message
