import math

import mpmath as mp
import numpy as np
import pytest

import uavcov.special as special
from uavcov.errors import DomainError, NumericalError
from uavcov.special import hyp2f1, pochhammer

mp.mp.dps = 35


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(3.7, 0) == 1.0

    def test_factorial_case(self):
        assert pochhammer(1.0, 5) == 120.0

    def test_half_integer(self):
        assert pochhammer(0.5, 3) == pytest.approx(1.875, rel=1e-15)

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            pochhammer(1.0, -1)


class TestAnchors:
    def test_zero_first_parameter(self):
        assert hyp2f1(0, 1.5, 2.5, -7.0) == 1.0

    def test_zero_argument(self):
        assert hyp2f1(3, 1.5, 2.5, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1 - z)/z, so at z = -1 the value is log 2.
        assert hyp2f1(1, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-13)


# Grid spanning all three dispatch regions, including the thresholds.
_Z_GRID = [-1e-4, -0.3, -0.499, -0.501, -0.9, -1.0, -5.0, -7.5, -8.5, -30.0,
           -63.5, -64.5, -300.0, -1e4, -7.5e5, -1e9]
_B_GRID = [1.0, 1.5, 2.0, 2.5, 3.5]


class TestAgainstArbitraryPrecision:
    @pytest.mark.parametrize("a", [1, 2, 3, 6])
    @pytest.mark.parametrize("b", _B_GRID)
    def test_matches_mpmath(self, a, b):
        for z in _Z_GRID:
            mine = hyp2f1(a, b, b + 1.0, z)
            ref = float(mp.hyp2f1(a, b, b + 1.0, z))
            assert mine == pytest.approx(ref, rel=1e-12), f"z={z}"

    def test_c_equal_b_plus_two(self):
        for a in (1, 2, 4):
            for b in (1.0, 2.5):
                for z in (-0.2, -3.0, -500.0, -2e5):
                    mine = hyp2f1(a, b, b + 2.0, z)
                    ref = float(mp.hyp2f1(a, b, b + 2.0, z))
                    assert mine == pytest.approx(ref, rel=1e-12), (a, b, z)


class TestInternalConsistency:
    def test_contiguous_relation(self):
        """c(1-z)F(a) - cF(a-1) + (c-b)zF(c+1) vanishes to 1e-9 relative."""
        for a in (1, 2, 3):
            for b in _B_GRID:
                c = b + 1.0
                for z in (-0.1, -0.45, -2.0, -10.0, -40.0, -200.0, -1e4):
                    f = hyp2f1(a, b, c, z)
                    f_down = hyp2f1(a - 1, b, c, z)
                    f_up = hyp2f1(a, b, c + 1.0, z)
                    resid = c * (1 - z) * f - c * f_down + (c - b) * z * f_up
                    scale = max(abs(c * (1 - z) * f), abs(c * f_down),
                                abs((c - b) * z * f_up))
                    assert abs(resid) <= 1e-9 * scale, (a, b, z)

    def test_series_and_pfaff_agree_on_overlap(self):
        """Both series paths are valid on z in (-1, -0.5] and must agree."""
        for a in (1, 2, 4):
            for b in _B_GRID:
                c = b + 1.0
                for z in np.linspace(-0.95, -0.5, 10):
                    direct = special._gauss_series(a, b, c, float(z))
                    pfaff = special._pfaff(a, b, c, float(z))
                    assert direct == pytest.approx(pfaff, rel=1e-11), (a, b, z)

    def test_pfaff_and_large_z_agree_on_overlap(self):
        """Both paths are valid on the range the large-z path took over."""
        for a in (1, 2, 3):
            for b in _B_GRID:
                for c in (b + 1.0, b + 2.0):
                    for z in (-8.0, -10.0, -16.0, -40.0, -64.0, -100.0, -150.0):
                        pfaff = special._pfaff(a, b, c, z)
                        large = special._large_z(a, b, c, z)
                        assert pfaff == pytest.approx(large, rel=1e-11), (a, b, c, z)

    def test_bounded_and_monotone_in_magnitude(self):
        """With a >= 1 the value sits in (0, 1] and decays as |z| grows."""
        for a in (1, 2, 5):
            for b in _B_GRID:
                values = [hyp2f1(a, b, b + 1.0, z) for z in
                          [0.0, -0.01, -0.5, -2.0, -10.0, -100.0, -1e4, -1e7]]
                assert all(0.0 < v <= 1.0 for v in values)
                assert all(x >= y for x, y in zip(values, values[1:]))


class TestDomainAndFailure:
    @pytest.mark.parametrize(
        "args",
        [
            (-1, 1.5, 2.5, -1.0),   # negative first parameter
            (1.5, 1.5, 2.5, -1.0),  # non-integer first parameter
            (1, -0.5, 0.5, -1.0),   # non-positive b
            (1, 1.5, 4.0, -1.0),    # c not in {b+1, b+2}
            (1, 1.5, 2.5, 0.5),     # positive argument
        ],
    )
    def test_domain_errors(self, args):
        with pytest.raises(DomainError):
            hyp2f1(*args)

    def test_non_convergence_carries_partial_result(self, monkeypatch):
        monkeypatch.setattr(special, "SERIES_MAX_TERMS", 3)
        with pytest.raises(NumericalError) as info:
            hyp2f1(2, 1.5, 2.5, -0.45)
        assert info.value.partial is not None
        assert info.value.error_bound is not None
        assert info.value.error_bound > 0
