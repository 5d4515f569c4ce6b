"""The benchmark's coverage oracle, checked on its own terms."""

import math

import numpy as np
import pytest
from scipy import integrate

import checks
import oracle
from conftest import BENCH

GEO = oracle.Geometry(radius=40.0, height=30.0, serving_altitude=20.0)


def test_no_interferers_means_full_coverage():
    assert oracle.coverage(3.0, 0, 2, 1, 0.5, GEO) == 1.0


def test_reproduces_reference_table_to_six_figures():
    table = checks.reference_table(BENCH.parent / "docs" / "reference_table.md")
    assert set(table) == {0.1, 0.9}
    for stay, entries in table.items():
        assert len(entries) == 6
        for psi_db, expected in entries:
            got = oracle.coverage(10.0 ** (psi_db / 10.0), 2, 1, 1, stay, GEO)
            assert float(f"{got:.6g}") == expected, (stay, psi_db, got)


def _brute_phase_factor(s, m, k, geo, phase):
    """phi^(k)(s) by scipy's adaptive 2D quadrature on the raw definition."""
    R, H, a = geo.radius, geo.height, geo.alpha
    dens = (lambda x: 1.0 / H) if phase == "static" else (
        lambda x: 6.0 * x / H**2 - 6.0 * x**2 / H**3)

    def f(x, z):
        w = math.hypot(z, x)
        return (2 * z / R**2) * dens(x) * w ** (-a * k) * (1 + s * w**-a / m) ** -(m + k)

    value, _ = integrate.dblquad(f, 0.0, R, 0.0, H, epsabs=0.0, epsrel=1e-10)
    return (-1) ** k * math.prod(m + i for i in range(k)) / m**k * value


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_phase_derivatives_match_adaptive_quadrature(alpha):
    geo = oracle.Geometry(40.0, 30.0, 10.0, alpha)
    s, m = 50.0, 2
    got = oracle.phase_derivatives(s, m, 2, geo)
    for phase in ("static", "moving"):
        for k in range(3):
            want = _brute_phase_factor(s, m, k, geo, phase)
            assert got[phase][k] == pytest.approx(want, rel=1e-8), (phase, k)


def test_alpha3_coverage_converged_and_consistent_with_derivatives():
    geo = oracle.Geometry(40.0, 30.0, 10.0, 3.0)
    psi = 10.0 ** 0.5
    base = oracle.coverage(psi, 3, 3, 2, 0.4, geo)
    assert 0.0 < base < 1.0
    assert oracle.coverage(psi, 3, 3, 2, 0.4, geo, nodes=24) == pytest.approx(base, rel=1e-12)
    # m0 = 1 coverage is L(s0) itself; compare L'(s0) with a central difference.
    s0, h = 1000.0, 1e-3
    d = oracle.phase_derivatives(s0, 2, 1, geo)["moving"]
    plus = oracle.phase_derivatives(s0 + h, 2, 0, geo)["moving"][0]
    minus = oracle.phase_derivatives(s0 - h, 2, 0, geo)["moving"][0]
    assert d[1] == pytest.approx((plus - minus) / (2 * h), rel=1e-6)


def test_series_power_matches_repeated_product():
    a = np.array([0.7, -0.2, 0.05, -0.01])
    want = np.array([1.0, 0, 0, 0])
    for _ in range(5):
        want = np.convolve(want, a)[:4]
    assert oracle._series_power(a, 5) == pytest.approx(want, rel=1e-13)


def test_coverage_decreases_in_interferer_shape_at_unit_serving_shape():
    geo = oracle.Geometry(40.0, 30.0, 10.0)
    for psi_db in (-10.0, 0.0, 10.0):
        psi = 10.0 ** (psi_db / 10.0)
        values = [oracle.coverage(psi, 8, 1, m1, 0.5, geo) for m1 in (1, 2, 3)]
        assert values[0] > values[1] > values[2]
