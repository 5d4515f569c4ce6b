import math

import mpmath as mp
import numpy as np
import pytest

import uavcov.special as special
from uavcov.config import NetworkConfig
from uavcov.errors import DomainError, NumericalError
from uavcov.special import hyp2f1
from uavcov.validation import check_hyp2f1_consistency

mp.mp.dps = 35


class TestAnchors:
    def test_zero_first_parameter(self):
        assert hyp2f1(0, 1.5, 2.5, -7.0) == 1.0

    def test_zero_argument(self):
        assert hyp2f1(3, 1.5, 2.5, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1, 1; 2; z) = -log(1 - z)/z, so at z = -1 the value is log 2.
        assert hyp2f1(1, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), rel=1e-13)


# Grid spanning both dispatch regions, including the threshold.
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

    def test_closed_form_calls(self, monkeypatch):
        """Every (a, b, c, z) that closed_phase_factor passes to hyp2f1, both
        phases at m in {1, 2, 3, 8, 12}, R/H = 40/30 and 100/5 and s =
        1e-3..1e9, to 5e-14 relative: the closed form calls b = kappa/2 up
        to m + 2.5, beyond _B_GRID."""
        calls = set()

        def record(*args):
            calls.add(args)
            return hyp2f1(*args)

        monkeypatch.setattr(special, "hyp2f1", record)
        for radius, height in ((40.0, 30.0), (100.0, 5.0)):
            net = NetworkConfig(radius, height, 10.0, 2, 2.0)
            for m in (1, 2, 3, 8, 12):
                for s in np.logspace(-3, 9, 13).tolist():
                    for phase in ("static", "moving"):
                        special.closed_phase_factor(phase, s, m, net)
        worst, worst_at = 0.0, None
        for args in sorted(calls):
            ref = mp.hyp2f1(*args)
            rel = float(abs(hyp2f1(*args) - ref) / ref)
            if rel > worst:
                worst, worst_at = rel, args
        assert worst <= 5e-14, (worst, worst_at)


class TestInternalConsistency:
    def test_contiguous_relation(self):
        """The shared check at wider grids than `validate`'s: the contiguous
        relation down to z = -1e4 (1e-9), and the Pfaff and large-z paths
        on the range the large-z path took over, down to -150 (1e-11)."""
        result = check_hyp2f1_consistency(
            ((1, 2, 3), _B_GRID, (-0.1, -0.45, -2.0, -10.0, -40.0, -200.0, -1e4)),
            ((1, 2, 3), _B_GRID, (-8.0, -10.0, -16.0, -40.0, -64.0, -100.0, -150.0)))
        assert result.passed, result.detail

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
