import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from uavcov import distributions, simulator
from uavcov.distributions import (
    AltitudeDistribution,
    DistanceDistribution,
    smoothstep_inverse,
)
from uavcov.errors import DomainError, UnsupportedGeometryError
from uavcov.scenario import load_scenario
from uavcov.validation import integrated_pdf, run_validation

R, H = 40.0, 30.0
BASELINE = Path(__file__).resolve().parents[1] / "scenarios" / "baseline.json"


def reference_pdf_pieces(phase, R, H):
    """The paper's two distance pdfs, written out by hand per phase, as
    (lo, hi, piece) on [0, H], [H, R] and [R, sqrt(R^2 + H^2)]: the
    reference the law derived from the altitude cdf table is held to."""
    R2 = R * R
    if phase == "static":
        def low(w):
            return 2.0 * w * w / (R2 * H)

        def top(w):
            shell = (w * w - R2) ** 0.5
            return 2.0 * w / R2 - 2.0 * w * shell / (R2 * H)
    else:
        def low(w):
            return -4.0 * w**4 / (R2 * H**3) + 6.0 * w**3 / (R2 * H * H)

        def top(w):
            shell = w * w - R2
            return (2.0 * w / R2 - 6.0 * w * shell / (R2 * H * H)
                    + 4.0 * w * shell**1.5 / (R2 * H**3))

    def mid(w):
        return 2.0 * w / R2

    return ((0.0, H, low), (H, R, mid), (R, math.hypot(R, H), top))


def reference_piece_polynomials(phase, R, H):
    """The hand-written coefficients of x^0..x^4 of the low, mid and shell
    polynomials (the shell one in v = sqrt(w^2 - R^2))."""
    R2 = R * R
    mid = (0.0, 2.0 / R2, 0.0, 0.0, 0.0)
    if phase == "static":
        return ((0.0, 0.0, 2.0 / (R2 * H), 0.0, 0.0), mid,
                (0.0, 2.0 / R2, -2.0 / (R2 * H), 0.0, 0.0))
    return ((0.0, 0.0, 0.0, 6.0 / (R2 * H * H), -4.0 / (R2 * H**3)), mid,
            (0.0, 2.0 / R2, 0.0, -6.0 / (R2 * H * H), 4.0 / (R2 * H**3)))


def mpmath_distance_cdf(phase, R, H, w):
    """P(h^2 + Z^2 <= w^2) at 40 digits: the altitude density times the
    disk probability min(max(w^2 - x^2, 0) / R^2, 1), integrated over x."""
    with mpmath.workdps(40):
        R, H, w = map(mpmath.mpf, (R, H, w))
        if phase == "static":
            def density(x):
                return 1 / H
        else:
            def density(x):
                return 6 * x * (H - x) / H**3
        top = min(w, H)
        kink = mpmath.sqrt(max(w * w - R * R, 0))
        points = [0, *([kink] if 0 < kink < top else []), top]
        return mpmath.quad(lambda x: density(x) * min((w * w - x * x) / (R * R), 1), points)


def oracle_distance_samples(phase, n, rng):
    """Independent sampler: uniform disk radius plus altitude by rejection.

    Deliberately avoids the library's inverse-transform path so the two
    routes cross-validate each other.
    """
    z = R * np.sqrt(rng.random(n))
    if phase == "static":
        h = rng.uniform(0.0, H, n)
    else:
        # rejection against the parabola 6x(H-x)/H^3, peak 1.5/H at x = H/2
        h = np.empty(0)
        while h.size < n:
            cand = rng.uniform(0.0, H, 2 * n)
            keep = rng.random(2 * n) * (1.5 / H) <= 6 * cand * (H - cand) / H**3
            h = np.concatenate([h, cand[keep]])
        h = h[:n]
    return np.hypot(h, z)


class TestClosedFormAnchors:
    def test_static_cdf_values(self):
        dist = DistanceDistribution("static", R, H)
        assert dist.cdf(0.0) == 0.0
        # (2/3) * 30^3 / (40^2 * 30) = 3/8
        assert dist.cdf(30.0) == pytest.approx(0.375, rel=1e-14)
        assert dist.cdf(50.0) == 1.0

    def test_static_pdf_values(self):
        dist = DistanceDistribution("static", R, H)
        assert dist.pdf(0.0) == 0.0
        assert dist.pdf(35.0) == pytest.approx(2 * 35 / 1600.0, rel=1e-14)

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_pdf_float_and_array_inputs_agree_exactly(self, phase):
        """Inside each segment and on the breakpoints w = H and w = R; on
        each segment the pdf is the hand-written piece."""
        dist = DistanceDistribution(phase, R, H)
        w = np.array([1e-3, 7.0, H, 35.0, R, 45.0, dist.support_max])
        as_array = dist.pdf(w)
        assert [dist.pdf(float(x)) for x in w] == as_array.tolist()
        for lo, hi, piece in reference_pdf_pieces(phase, R, H):
            inside = (w >= lo) & (w <= hi)
            assert as_array[inside] == pytest.approx(piece(w[inside]), rel=1e-13, abs=1e-18)

    def test_moving_cdf_values(self):
        dist = DistanceDistribution("moving", R, H)
        assert dist.cdf(0.0) == 0.0
        # -(4/5) 30^5/(40^2 30^3) + (3/2) 30^4/(40^2 30^2) = 0.39375
        assert dist.cdf(30.0) == pytest.approx(0.39375, rel=1e-14)
        # middle segment at w = R: 1 - (3/10) * 900/1600 = 0.83125
        assert dist.cdf(40.0) == pytest.approx(0.83125, rel=1e-14)
        assert dist.cdf(50.0) == 1.0

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_monte_carlo_oracle_agrees(self, phase, rng):
        n = 400_000
        samples = oracle_distance_samples(phase, n, rng)
        dist = DistanceDistribution(phase, R, H)
        for w in (20.0, 30.0, 35.0, 40.0, 45.0):
            emp = np.mean(samples <= w)
            se = np.sqrt(emp * (1 - emp) / n)
            assert abs(emp - dist.cdf(w)) < 4 * se + 1e-4, f"w={w}"


class TestLawStructure:
    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_branch_continuity(self, phase):
        dist = DistanceDistribution(phase, R, H)
        for brk in (H, R):
            below = dist.cdf(brk * (1 - 1e-12))
            above = dist.cdf(brk * (1 + 1e-12))
            assert abs(below - above) <= 1e-9 * brk  # derivative-bounded jump
        # analytic continuity right at the breakpoints
        if phase == "static":
            assert dist.cdf(H) == pytest.approx((2 / 3) * H**2 / R**2, rel=1e-14)

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_pdf_cdf_consistency(self, phase):
        dist = DistanceDistribution(phase, R, H)
        grid = np.linspace(0.0, dist.support_max, 101)[1:]
        for w in grid:
            pts = [x for x in (H, R) if x < w]
            total, _ = integrate.quad(dist.pdf, 0.0, w, points=pts, limit=200)
            assert abs(total - dist.cdf(w)) <= 1e-9

    @pytest.mark.parametrize("phase", ["static", "moving"])
    @pytest.mark.parametrize("radius, height", [(40.0, 30.0), (100.0, 5.0), (10.0, 9.0)])
    def test_fixed_rule_integral_matches_quad(self, phase, radius, height):
        """integrated_pdf, the fixed Gauss-Legendre integral of the pdf that
        check_distribution_laws holds to the cdf, against scipy's adaptive
        quadrature at the check's 20 points, to 1e-10."""
        dist = DistanceDistribution(phase, radius, height)
        w = np.linspace(0.0, dist.support_max, 21)[1:]
        expected = [integrate.quad(dist.pdf, 0.0, x, limit=200,
                                   points=[p for p in (height, radius) if p < x])[0]
                    for x in w.tolist()]
        assert np.abs(integrated_pdf(dist, w) - expected).max() <= 1e-10

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_pdf_normalizes(self, phase):
        dist = DistanceDistribution(phase, R, H)
        total, _ = integrate.quad(dist.pdf, 0.0, dist.support_max,
                                  points=[H, R], limit=200)
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_shell_piece_is_the_top_piece_in_v(self, phase):
        """The shell polynomial of piece_polynomials, at v, is pdf(w) v / w
        with w = sqrt(R^2 + v^2), and it carries the top segment's
        probability, 1 - cdf(R)."""
        dist = DistanceDistribution(phase, R, H)
        shell = np.polynomial.Polynomial(dist.piece_polynomials()[2])
        v = np.linspace(0.5, H - 0.5, 15)
        w = np.sqrt(R * R + v * v)
        assert shell(v) == pytest.approx(dist.pdf(w) * v / w, rel=1e-12)
        mass, _ = integrate.quad(shell, 0.0, H)
        assert mass == pytest.approx(1.0 - dist.cdf(R), rel=1e-13)

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_low_and_mid_polynomials_are_the_pdf_pieces(self, phase):
        """piece_polynomials, derived from the altitude cdf table, is the
        hand-written coefficients bit for bit at R/H = 40/30 and 100/5, and
        its [0, H] and [H, R] polynomials are the hand-written pdf pieces."""
        for radius, height in ((R, H), (100.0, 5.0)):
            derived = DistanceDistribution(phase, radius, height).piece_polynomials()
            expected = reference_piece_polynomials(phase, radius, height)
            assert np.array(derived).tobytes() == np.array(expected).tobytes()
        dist = DistanceDistribution(phase, R, H)
        pieces = reference_pdf_pieces(phase, R, H)
        for (lo, hi, piece), coeffs in zip(pieces[:2], dist.piece_polynomials()[:2]):
            w = np.linspace(lo, hi, 17)
            assert np.polynomial.Polynomial(coeffs)(w) == pytest.approx(piece(w), rel=1e-14)

    def test_piece_polynomials_match_the_hand_written_ones_at_random_geometries(self):
        """Over 2,000 geometries (R log-uniform on [e^-5, e^8], H/R uniform on
        [0.001, 0.999]) every derived coefficient is the hand-written one bit
        for bit, except the moving phase's x^4 ones.  Those divide by R^2 H^3
        multiplied in another order: after the shared R^2, each side rounds
        three or four more times, so they differ by at most 7 units of
        2^-53 relative."""
        rng = np.random.default_rng(11)
        worst = 0.0
        for radius, ratio in zip(np.exp(rng.uniform(-5, 8, 2000)), rng.uniform(1e-3, 0.999, 2000)):
            radius, height = float(radius), float(radius * ratio)
            for phase in ("static", "moving"):
                derived = np.array(DistanceDistribution(phase, radius, height).piece_polynomials())
                expected = np.array(reference_piece_polynomials(phase, radius, height))
                if phase == "static":
                    assert derived.tobytes() == expected.tobytes()
                    continue
                assert derived[:, :4].tobytes() == expected[:, :4].tobytes()
                fourth, reference = derived[[0, 2], 4], expected[[0, 2], 4]
                worst = max(worst, *np.abs(fourth - reference) / np.abs(reference))
        assert worst <= 7 * 2.0**-53

    @pytest.mark.parametrize("phase", ["static", "moving"])
    @pytest.mark.parametrize("radius, height", [(40.0, 30.0), (100.0, 5.0), (40.0, 39.0)])
    def test_cdf_matches_mpmath(self, phase, radius, height):
        """Within 4.4e-16 absolute of P(h^2 + Z^2 <= w^2) at 40 digits, on a
        grid over the support with both breakpoints and their neighbours,
        and exact at both ends of the support."""
        dist = DistanceDistribution(phase, radius, height)
        w = np.concatenate([np.linspace(0.0, dist.support_max, 25),
                            [height, radius, np.nextafter(height, 0), np.nextafter(radius, 0)]])
        got = dist.cdf(w)
        for wi, gi in zip(w.tolist(), got.tolist()):
            assert abs(gi - mpmath_distance_cdf(phase, radius, height, wi)) <= 4.4e-16, wi
        assert dist.cdf(0.0) == 0.0
        assert dist.cdf(dist.support_max) == 1.0

    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_cdf_is_monotone(self, phase):
        dist = DistanceDistribution(phase, R, H)
        grid = np.linspace(0.0, dist.support_max, 400)
        vals = dist.cdf(grid)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all((vals >= 0) & (vals <= 1))

    def test_rejects_tall_geometry(self):
        with pytest.raises(UnsupportedGeometryError):
            DistanceDistribution("static", 30.0, 40.0)

    def test_domain_error_outside_support(self):
        dist = DistanceDistribution("static", R, H)
        with pytest.raises(DomainError):
            dist.cdf(50.1)
        with pytest.raises(DomainError):
            dist.pdf(-0.5)
        with pytest.raises(DomainError):
            DistanceDistribution("hovering", R, H)

    @pytest.mark.parametrize("evaluate", [
        DistanceDistribution("moving", R, H).pdf, DistanceDistribution("moving", R, H).cdf,
        AltitudeDistribution("moving", H).cdf, smoothstep_inverse,
    ], ids=["distance-pdf", "distance-cdf", "altitude-cdf", "smoothstep-inverse"])
    @pytest.mark.parametrize("argument", [math.nan, [1.0, math.nan]], ids=["scalar", "array"])
    def test_nan_argument_is_a_domain_error(self, evaluate, argument):
        with pytest.raises(DomainError):
            evaluate(argument)


class TestSampling:
    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_sampler_matches_cdf(self, phase, rng):
        """The tests' own rejection sampler against the whole cdf."""
        dist = DistanceDistribution(phase, R, H)
        samples = oracle_distance_samples(phase, 200_000, rng)
        ks = stats.kstest(samples, dist.cdf).statistic
        assert ks < 0.005

    def test_flat_region_limit(self):
        """As the region flattens, distances follow the bare disk law w^2/R^2."""
        thin = DistanceDistribution("static", R, 1e-6)
        w = np.linspace(0.0, thin.support_max, 401)
        assert np.abs(thin.cdf(w) - np.clip(w**2 / R**2, 0, 1)).max() < 1e-6

    def test_smoothstep_inverse_solves_cubic(self):
        p = np.linspace(0.0, 1.0, 1001)
        u = smoothstep_inverse(p)
        assert np.max(np.abs(3 * u**2 - 2 * u**3 - p)) < 1e-9
        with pytest.raises(DomainError):
            smoothstep_inverse([1.5])

    def test_smoothstep_inverse_matches_mpmath(self):
        """Against the root at 60 digits, found in the rescaled unknowns
        u = sqrt(q) v, q = min(p, 1 - p), where it stays of order one."""
        p = np.concatenate([[0.0, 1.0, 0.5, 1e-300, 1e-16, 1.0 - 1e-16],
                            np.linspace(0.0, 1.0, 101), np.logspace(-300, -1, 60),
                            1.0 - np.logspace(-16, -1, 30)])
        u = smoothstep_inverse(p)
        with mpmath.workdps(60):
            for pi, ui in zip(p.tolist(), u.tolist()):
                q = min(mpmath.mpf(pi), 1 - mpmath.mpf(pi))
                r = mpmath.sqrt(q)
                v = mpmath.findroot(lambda v: 3 * v**2 - 2 * r * v**3 - 1, 1 / mpmath.sqrt(3))
                ref = r * v if pi <= 0.5 else 1 - r * v
                assert abs(ui - ref) <= 1e-15, pi


@pytest.mark.parametrize("plant, failing", [
    (lambda mp: mp.setitem(distributions._ALTITUDE_CDF, "moving", (0.0, 0.0, 1.0)),
     {"gl-vs-quad", "stationary-start"}),
    (lambda mp: mp.setattr(simulator, "smoothstep_inverse", lambda p: np.asarray(p, float)),
     {"stationary-start"}),
], ids=["moving-cdf-row-u2", "uniform-moving-launch"])
def test_planted_altitude_law_fails_at_validates_scale(monkeypatch, plant, failing):
    """`validate` on the baseline scenario (all 14 checks pass there
    unplanted: test_cli_import_leaves_out_the_validation_suite) with the moving row of the altitude cdf table set to u^2, or
    with the launch drawing moving altitudes uniformly.  The table feeds the
    kernel and the cdfs, not the launch, so the row fails gl-vs-quad (its
    own densities) and stationary-start (the launch's draws), while the pdf
    and cdf still agree; the uniform launch fails stationary-start."""
    plant(monkeypatch)
    results = {check.name: check for check in run_validation(load_scenario(str(BASELINE)))}
    assert failing <= {name for name, check in results.items() if not check.passed}
    assert results["distribution-laws"].passed
