"""Truncated Taylor-series (jet) arithmetic for carrying derivative stacks.

A jet stores the coefficients f(s0)/0!, f'(s0)/1!, ..., f^(K)(s0)/K! of a
function at an expansion point.  Sums, products and integer powers follow
exact truncated power-series algebra, so pushing per-term derivative
information through an M-fold product costs no extra differentiation.

The analysis itself raises its jets to the M-th power with plain floats
(interference._series_power); a Jet carries the result of
interference.laplace_derivative_jet.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet"]


class Jet:
    """Taylor coefficients of a scalar function at a point, up to fixed order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.ndim != 1 or self.coeffs.size == 0:
            raise ValueError("jet coefficients must be a non-empty 1-D sequence")

    @classmethod
    def constant(cls, value: float, order: int) -> "Jet":
        coeffs = np.zeros(order + 1)
        coeffs[0] = value
        return cls(coeffs)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @property
    def value(self) -> float:
        return float(self.coeffs[0])

    def derivative(self, k: int) -> float:
        """k-th derivative of the represented function at the expansion point."""
        if not 0 <= k <= self.order:
            raise ValueError(f"derivative order {k} outside jet order {self.order}")
        return float(self.coeffs[k]) * math.factorial(k)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            if other.order != self.order:
                raise ValueError("jet orders do not match")
            return other
        return Jet.constant(float(other), self.order)

    def __add__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs + other.coeffs)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return Jet(self.coeffs - other.coeffs)

    def __rsub__(self, other):
        other = self._coerce(other)
        return Jet(other.coeffs - self.coeffs)

    def __neg__(self):
        return Jet(-self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * float(other))
        other = self._coerce(other)
        full = np.convolve(self.coeffs, other.coeffs)
        return Jet(full[: self.order + 1])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if int(n) != n or n < 0:
            raise ValueError(f"jet power must be a non-negative integer, got {n}")
        result = Jet.constant(1.0, self.order)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __repr__(self):
        return f"Jet({self.coeffs.tolist()})"
