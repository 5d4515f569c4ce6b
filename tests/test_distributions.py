import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from uavcov.distributions import (
    AltitudeDistribution,
    DistanceDistribution,
    smoothstep_inverse,
)
from uavcov.errors import DomainError, UnsupportedGeometryError

R, H = 40.0, 30.0


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
        """Inside each segment and on the breakpoints w = H and w = R; the
        pieces themselves take floats and arrays alike."""
        dist = DistanceDistribution(phase, R, H)
        w = np.array([1e-3, 7.0, H, 35.0, R, 45.0, dist.support_max])
        as_array = dist.pdf(w)
        assert [dist.pdf(float(x)) for x in w] == as_array.tolist()
        for lo, hi, piece in dist.pdf_pieces():
            inside = w[(w > lo) & (w < hi)]
            floats = [piece(float(x)) for x in inside]
            assert floats == pytest.approx(piece(inside).tolist(), rel=1e-14)

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
        """The [0, H] and [H, R] polynomials of piece_polynomials are the
        pdf pieces on their segments."""
        dist = DistanceDistribution(phase, R, H)
        pieces = dist.pdf_pieces()
        for (lo, hi, piece), coeffs in zip(pieces[:2], dist.piece_polynomials()[:2]):
            w = np.linspace(lo, hi, 17)
            assert np.polynomial.Polynomial(coeffs)(w) == pytest.approx(piece(w), rel=1e-14)

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


class TestSampling:
    @pytest.mark.parametrize("phase", ["static", "moving"])
    def test_sampler_matches_cdf(self, phase, rng):
        dist = DistanceDistribution(phase, R, H)
        samples = dist.sample(200_000, rng)
        ks = stats.kstest(samples, dist.cdf).statistic
        assert ks < 0.005

    def test_moving_altitude_mean_is_half_height(self, rng):
        alt = AltitudeDistribution("moving", H)
        draws = alt.sample(300_000, rng)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - H / 2) < 3 * se

    def test_moving_altitude_histogram_matches_parabola(self, rng):
        alt = AltitudeDistribution("moving", H)
        draws = alt.sample(200_000, rng)
        edges = np.linspace(0.0, H, 31)
        counts, _ = np.histogram(draws, bins=edges)
        probs = np.diff(alt.cdf(edges))
        chi2 = stats.chisquare(counts, probs * draws.size)
        assert chi2.pvalue > 0.01

    def test_flat_region_limit(self, rng):
        """As the region flattens, distances follow the bare disk law w^2/R^2."""
        thin = DistanceDistribution("static", R, 1e-6)
        samples = thin.sample(100_000, rng)
        assert samples.max() <= np.hypot(R, 1e-6)
        ks = stats.kstest(samples, lambda w: np.clip(w**2 / R**2, 0, 1)).statistic
        assert ks < 0.006

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
