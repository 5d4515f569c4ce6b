"""Laplace transform of the aggregate interference power and its derivatives.

Per-interferer factor, conditioned on mobility phase:

    Phi_phase(s) = E_W[ (1 + s W^-alpha / m)^-m ],

the Laplace transform at s of one interferer's faded received power, with W
following the phase's distance law and m the integer Nakagami shape.  With
n of the M interferers dwelling (a Binomial(M, p_stay) count) the aggregate
transform collapses to

    L_I(s) = [ p_stay Phi_static(s) + (1 - p_stay) Phi_moving(s) ]^M.

Derivatives of L_I (needed by the gamma-fading coverage sum) are carried as
jets: each phase factor's k-th derivative has the exact integral form

    Phi^(k)(s) = (-1)^k (m)_k m^-k E_W[ W^(-alpha k) (1 + s W^-alpha / m)^-(m+k) ].

One vectorized Gauss-Legendre kernel (scaled_phase_jets) is the only
production evaluator of these, at every exponent and every order k >= 0,
the phase factors themselves included (k = 0).  It integrates fixed panels
per distance-law segment [0, H], [H, R] and [R, sqrt(R^2 + H^2)] (the last
mapped through w = sqrt(R^2 + v^2), which removes its square-root kink),
graded geometrically toward the integrand's length scale (s/m)^(1/alpha)
down to two doublings below it, with a 12-vs-24-node error estimate held
to 1e-10 relative (36 nodes per panel), against polynomial pdf pieces
derived from the altitude law (DistanceDistribution.piece_polynomials).
It carries the scaled coefficients (-s)^k Phi^(k)(s) / k!, which lie in
[0, 1] for every s, and J.C.P. Miller's power-series recurrence raises
their phase mixture to the M-th power, both as arrays over the thresholds.
laplace_jets is that one kernel call for a whole grid of s.  The panels of
every s come from one geometric ladder and depend on s only through the
ladder's lowest rung, its bottom, so a call builds each distinct bottom's
edges once and one table of its distinct panels' nodes.  The thresholds of
one bottom share every node, so they go through the arithmetic together,
as grids of rows by nodes (all derivative orders in one array) of up to a
fixed number of node values, each row summing its own nodes.
scaled_phase_jets is the one evaluator of the phase factors and
laplace_jets the one evaluator of L_I and its jets; nothing evaluates them
one threshold at a time.

At path-loss exponent 2 the phase factors also have the paper's Gauss
hypergeometric closed forms.  uavcov.special keeps them as the kernel's
oracle, off this module's path.  At every exponent and order its oracle is
uavcov.validation.phase_moments, the model's definition integrated in 2D;
the tests add scipy's adaptive quadrature.  No scipy is imported here.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .config import FadingConfig, NetworkConfig
from .distributions import PHASES, DistanceDistribution
from .errors import DomainError, NumericalError

__all__ = ["scaled_phase_jets", "laplace_jets"]

# Gauss-Legendre kernel.  Each panel takes _GL_NODES nodes, and 2 * _GL_NODES
# for the error estimate, which must stay within _GL_RTOL relative.  Panels
# are graded geometrically, ceil(a(m + k) / _PANELS_PER_STEEPNESS) per
# doubling, down to _GRADING doublings below the integrand's length scale.
# _PANELS_PER_STEEPNESS must move with _GL_NODES, so that each node covers
# the same steepness: 12 nodes at 16 per unit miss 1e-10 at m = 12.  A grid
# takes rows of one ladder bottom up to _NODE_BUDGET node values, counted
# over every derivative order (36 nodes per panel); a row above it goes
# alone.  A full grid peaks at 33-48 bytes per node value beyond the output,
# the index of the rows by bottom and the panel table, at most about 0.4 MB
# (measured with tracemalloc at (exponent, m, order) = (2, 1, 0), (2, 3, 3)
# and (4, 6, 9)).
_GL_NODES = 12
_GL_RTOL = 1e-10
_PANELS_PER_STEEPNESS = 12
_GRADING = 2
_NODE_BUDGET = 8192


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = 1.0, x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n Gauss-Legendre nodes and weights on [0, 1], read-only.

    Each root x of P_n in [0, 1) comes from Newton's iteration started at
    Tricomi's estimate (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013)
    and gives the nodes (1 -+ x) / 2, each with weight
    1 / ((1 - x^2) P_n'(x)^2).  Plain floats: no eigensolver runs.
    """
    nodes, weights = [0.0] * n, [0.0] * n
    for i in range((n + 1) // 2):
        x = 0.0 if 2 * i + 1 == n else math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, slope = _legendre(n, x)
            step = p / slope
            x -= step
            if abs(step) <= 1e-15:
                break
        else:
            raise NumericalError(f"Gauss-Legendre root {i} of P_{n} did not converge")
        _, slope = _legendre(n, x)
        nodes[i], nodes[n - 1 - i] = 0.5 * (1.0 - x), 0.5 * (1.0 + x)
        weights[i] = weights[n - 1 - i] = 1.0 / ((1.0 - x * x) * slope * slope)
    nodes, weights = np.array(nodes), np.array(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=None)
def _rule_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n- and 2n-node Gauss-Legendre rules on [0, 1] side by side, the
    n-node rule first: (nodes, weights), read-only."""
    (x, wx), (x2, wx2) = _gauss_legendre(n), _gauss_legendre(2 * n)
    nodes, weights = np.concatenate([x, x2]), np.concatenate([wx, wx2])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _no_length_scale(s: float, m: int) -> DomainError:
    """The error of a row whose s/m is not above 0, which has no ladder."""
    return DomainError(f"Gauss-Legendre kernel needs s/m > 0, got s={s:.17g}, m={m}")


def _ladder_edges(ladder: list[int], per_doubling: int, net: NetworkConfig):
    """The panel edges of each ladder bottom (ascending): the edges of every
    s whose ladder starts there, built once from the bottom."""
    R, H = net.radius, net.height
    w_max = math.hypot(R, H)
    highest = math.ceil(per_doubling * math.log2(w_max))
    lowest = min(ladder, default=highest)
    rungs = [w for w in (math.exp2(j / per_doubling) for j in range(lowest, highest))
             if w < w_max]
    return [sorted({0.0, H, R, w_max, *rungs[bottom - lowest:]}) for bottom in ladder]


def _panel_plan(s: np.ndarray, m: int, order: int, net: NetworkConfig):
    """The panels of one kernel call: (row_sets, ladder, panels, columns).

    A row's edges (validation._panel_edges) depend on its s only through the
    lowest rung of the geometric ladder, its bottom, computed here by the
    same float expression.  ladder holds the distinct bottoms ascending and
    row_sets[i] the position of row i's bottom in it, or -1 where s_i/m is
    not above 0, so that row has no length scale and no ladder; panels are
    the call's distinct (lo, hi) panels sorted by position, and columns[j]
    the indices into panels of the panels of bottom ladder[j], ascending.
    """
    alpha = net.path_loss_exponent
    w_max = math.hypot(net.radius, net.height)
    per_doubling = math.ceil(alpha * (m + order) / _PANELS_PER_STEEPNESS)
    bottoms = [math.floor(per_doubling * (math.log2(min((si / m) ** (1.0 / alpha), w_max))
                                          - _GRADING)) if si / m > 0 else None
               for si in map(float, s)]
    ladder = sorted(set(bottoms) - {None})
    edge_sets = [list(itertools.pairwise(edges))
                 for edges in _ladder_edges(ladder, per_doubling, net)]
    panels = sorted(set().union(*edge_sets))
    index = {panel: i for i, panel in enumerate(panels)}
    columns = [[index[panel] for panel in edges] for edges in edge_sets]
    position = {None: -1} | {bottom: j for j, bottom in enumerate(ladder)}
    row_sets = np.fromiter(map(position.__getitem__, bottoms), int, len(bottoms))
    return row_sets, ladder, panels, columns


def scaled_phase_jets(s, m: int, order: int, net: NetworkConfig):
    """Scaled derivatives of both phase factors at every s, by Gauss-Legendre.

    Returns (coeffs, failures).  coeffs[i, p, k] = (-s_i)^k Phi_p^(k)(s_i) / k!
    for p = 0 (static) and 1 (moving) and k = 0..order, which by the
    derivative formula of the module docstring is

        C(m + k - 1, k) E_W[ t^m u^k ],  t = m W^a / (m W^a + s),  u = 1 - t.

    Every node value C(m + k - 1, k) t^m u^k lies in [0, 1] (their sum over
    all k is 1), so no coefficient can overflow however large s is; each
    order is the previous one times u (m + k - 1) / k.  Both phases and all
    orders come from the same nodes: the bottom two segments are integrated
    in w, the top one in v = sqrt(w^2 - R^2), where the pdf is a polynomial
    (DistanceDistribution.piece_polynomials) with no kink.  A row's panels
    are fixed by its ladder bottom (_panel_plan): each distinct bottom's
    edges are built once, and the call's distinct panels go into one table,
    built by a single _panel_nodes call.  The rows of one bottom share all
    their nodes, so they go through the arithmetic as (rows, order + 1,
    nodes) grids of at most _NODE_BUDGET node values (a row above it goes
    alone), each taking that bottom's table columns once (_grid_sums).  A
    row sums its own nodes by contiguous reductions, in the same order
    whatever rows share its call or its grid, so its value is bit for bit
    the one it has alone.

    Each panel is integrated with n = _GL_NODES and with 2n nodes; the 2n
    value is kept and their difference is its error estimate.  failures[i]
    is None, or a NumericalError naming the phase, s, m and k of the first
    coefficient of row i whose estimate exceeds _GL_RTOL relative, or a
    DomainError naming s and m where s/m is not above 0 (its coefficients
    are NaN).  The order-0 coefficients, the phase factors, are bounded
    by 1.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    m = int(m)
    coeffs, failures = np.empty((s.size, 2, order + 1)), [None] * s.size
    if not s.size:
        return coeffs, failures
    row_sets, _, panels, columns = _panel_plan(s, m, order, net)
    by_bottom = np.argsort(row_sets, kind="stable")
    # by_bottom[bounds[j]:bounds[j + 1]] are the rows of ladder bottom j;
    # the rows before bounds[0] have none.
    bounds = np.searchsorted(row_sets, np.arange(len(columns) + 1), sorter=by_bottom).tolist()
    del row_sets  # by_bottom is the one array per row that the call keeps
    for i in by_bottom[:bounds[0]].tolist():
        coeffs[i] = math.nan
        failures[i] = _no_length_scale(s[i], m)
    if not columns:
        return coeffs, failures
    w_alpha_top = (net.radius * net.radius + net.height**2) ** (net.path_loss_exponent / 2.0)
    m_w_alpha_top = m * w_alpha_top
    table = _panel_nodes(panels, m, w_alpha_top, net)
    ratios = np.array([[(m + k - 1) / k] for k in range(1, order + 1)])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for j, cols in enumerate(columns):
            rows = by_bottom[bounds[j]:bounds[j + 1]]
            # Bottom j's nodes: its panels' n-rule nodes, then their 2n-rule ones.
            nodes = table.take(cols, axis=2).reshape(4, -1)
            most = max(1, _NODE_BUDGET // ((order + 1) * nodes.shape[1]))
            for start in range(0, rows.size, most):
                _grid_sums(rows[start:start + most], s, m, ratios, m_w_alpha_top, nodes, coeffs,
                           failures)
        # The sums are relative to t^m at the top of the support (see
        # _grid_sums): scale them back, _NODE_BUDGET rows at a time.
        # Phi = E_W[t^m] <= 1 exactly: t lies in [0, 1] and the pdf
        # integrates to 1.  Rounding in the weights and node values (g up to
        # 1 + 6 ulp) can put it a few ulp above 1 at vanishing s, which a
        # million interferers raise beyond the coverage's round-off clamp; so
        # it is bounded by 1.
        for start in range(0, s.size, _NODE_BUDGET):
            block = coeffs[start:start + _NODE_BUDGET]
            block *= ((m_w_alpha_top / (m_w_alpha_top + s[start:start + _NODE_BUDGET])) ** m
                      )[:, None, None]
            np.minimum(block[:, :, 0], 1.0, out=block[:, :, 0])
    return coeffs, failures


def _panel_nodes(panels, m: int, w_alpha_top: float, net: NetworkConfig):
    """The panel table at the nodes of the (lo, hi) panels: m w^alpha
    (out[0]), w^alpha relative to w_alpha_top (out[1]) and each phase's
    pdf times quadrature weight (out[2], out[3]).  One column per panel,
    the n-node rule's nodes in rows 0..n-1 and the 2n-node rule's in rows
    n..3n-1.  The panels come sorted by position, so each pdf piece ([0, H],
    [H, R], [R, top]) is one run of them.
    """
    R, H, alpha = net.radius, net.height, net.path_loss_exponent
    edges = np.array(panels)
    ends = np.searchsorted(edges[:, 0], [H, R]).tolist()
    top = slice(ends[1], None)
    # Top panels go to v; lo * lo - R^2 would lose digits next to R.
    edges[top] = np.sqrt((edges[top] - R) * (edges[top] + R))
    lo, hi = edges[:, :1], edges[:, 1:]

    # Nodes of both rules side by side, the n-node rule first: (panels, 3n).
    x, wx = _rule_pair(_GL_NODES)
    width = hi - lo
    y = lo + width * x
    w2 = y * y
    w2[top] += R * R  # w^2 = R^2 + v^2
    w_alpha = w2 ** (alpha / 2.0)
    out = np.empty((4, *y.shape))
    np.multiply(m, w_alpha, out=out[0])
    np.divide(w_alpha, w_alpha_top, out=out[1])
    # Both phases' pdf by Horner's rule, each node taking the coefficients
    # of its piece: polys[power, phase, piece].
    polys = np.array([DistanceDistribution(phase, R, H).piece_polynomials() for phase in PHASES])
    per_piece = [x.size * ends[0], x.size * (ends[1] - ends[0]), x.size * (lo.size - ends[1])]
    coef = np.repeat(polys.transpose(2, 0, 1), per_piece, axis=2)
    pdf, y = coef[-1], y.ravel()
    for c in coef[-2::-1]:
        pdf = pdf * y + c
    np.multiply(pdf.reshape(2, lo.size, x.size), width * wx, out=out[2:])
    return out.transpose(0, 2, 1).copy()


def _grid_sums(rows, s: np.ndarray, m: int, ratios, m_w_alpha_top: float, nodes, coeffs,
               failures):
    """scaled_phase_jets' sums relative to t_top^m into coeffs[rows], and
    failures[rows], for rows of one ladder bottom, given its nodes (the
    table rows of _panel_nodes, the n-rule's nodes before the 2n-rule's).
    The rows and the orders k = 0..len(ratios) form one (rows, orders,
    nodes) grid; order k is order k - 1 times u ratios[k - 1], with
    u = s / (m w^alpha + s) and ratios[k - 1] = (m + k - 1) / k.

    t^m is taken relative to its value at the top of the support, where it
    is largest: the sums then keep their digits at any s, and only the
    final product with t_top^m may underflow (to a coefficient of 0).  Runs
    with floating-point warnings off: an infinite s gives NaN here, and a
    vanishing s with a steep exponent can overflow or divide by 0 next to
    w = 0 (inf or NaN); the error test reports either as the row's failure.
    """
    m_w_alpha, w_rel, density = nodes[0], nodes[1], nodes[2:]
    block = w_rel.size // 3
    s_rows = s[rows]
    denom_top = m_w_alpha_top + s_rows
    grid = np.empty((rows.size, ratios.size + 1, w_rel.size))
    denom = m_w_alpha + s_rows[:, None]
    g = np.divide(denom_top[:, None], denom, out=grid[:, 0])
    g *= w_rel
    g **= m
    if ratios.size:
        np.divide(s_rows[:, None, None] * ratios, denom[:, None], out=grid[:, 1:])
        for k in range(1, ratios.size + 1):
            grid[:, k] *= grid[:, k - 1]
    # Sums over the three blocks of n nodes: the n-rule's, then the 2n-rule's two halves.
    sums = (grid[:, None] * density[:, None]).reshape(rows.size, 2, -1, 3, block).sum(axis=-1)
    coarse, fine = sums[..., 0], sums[..., 1] + sums[..., 2]
    coeffs[rows] = fine
    err = np.abs(fine - coarse)
    good = err <= _GL_RTOL * fine  # NaN counts as bad
    if good.all():
        return
    for i, p, k in zip(*np.nonzero(~good)):
        row = int(rows[i])
        if failures[row] is None:
            rel = err[i, p, k] / fine[i, p, k] if fine[i, p, k] else math.inf
            t_top_m = (m_w_alpha_top / denom_top[i]) ** m
            failures[row] = NumericalError(
                f"Gauss-Legendre estimate {rel:.2e} above {_GL_RTOL:g} relative for "
                f"phase={PHASES[p]}, s={s_rows[i]:.17g}, m={m}, derivative order k={k}",
                partial=float(fine[i, p, k] * t_top_m),
                error_bound=float(err[i, p, k] * t_top_m),
            )


def _series_power(a: np.ndarray, n: int) -> np.ndarray:
    """Taylor coefficients of f^n from those of f, for each row of a
    (rows, order + 1), truncated at order.

    J.C.P. Miller's recurrence, from f (f^n)' = n f' f^n, on f / a_0, which
    starts at 1: b_k = sum_{j=1..k} ((n + 1) j - k) a_j b_(k-j) / (k a_0).
    a_0^n is applied last, as scale * 2^shift: frexp's mantissa of a_0, in
    [1/2, 1), is raised at most 1021 times per step, so each step's power
    lies in [2^-1021, 1], and the running product is renormalized by frexp
    after every step.  So no power overflows, and no intermediate leaves the
    normal float range before the final ldexp, however large n is and
    however small a_0^n is.  Scaling coefficient k by (-s0)^k commutes with
    all this, so scaled jets go through as they are.  A row whose a_0 is 0
    gives 0s (itself at n = 1), and a row of NaNs stays NaN.
    """
    a0 = a[:, 0]
    b = np.empty_like(a)
    b[:, 0] = 1.0
    mantissa, exponent = np.frexp(a0)
    scale, shift, left = np.ones_like(a0), n * exponent.astype(np.int64), n
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with a_0 = 0 are reset below
        for k in range(1, a.shape[1]):
            acc = 0.0
            for j in range(1, k + 1):
                acc = acc + ((n + 1) * j - k) * a[:, j] * b[:, k - j]
            b[:, k] = acc / (k * a0)
        while left:
            step = min(left, 1021)
            # Python's float power, correctly rounded where numpy's may be 1 ulp off
            scale, e = np.frexp(scale * np.array([x**step for x in mantissa.tolist()]))
            shift, left = shift + e, left - step
        out = np.ldexp(b * scale[:, None], shift[:, None])
    vanishing = a0 == 0.0
    out[vanishing] = a[vanishing] if n == 1 else 0.0
    return out


def laplace_jets(s0, order: int, net: NetworkConfig, fading: FadingConfig, p_stay: float):
    """Scaled Taylor jet of L_I and the two phase factors at every s0.

    Returns (jets, phi, failures), one row per s0.  jets[i, k] =
    (-s0_i)^k L_I^(k)(s0_i) / k! for k = 0..order, and phi[i] holds the
    static and moving phase factors at s0_i.  failures[i] is None, or the
    kernel's error for s0_i alone: a NumericalError, or a DomainError where
    s0_i/m is not above 0; that row of jets and phi is NaN.  Every jets[i, k]
    is >= 0 (L_I is completely monotone) and their sum is at most 1.  One
    Gauss-Legendre kernel call (scaled_phase_jets) gives both phases' scaled
    jets at every s0 and exponent, the phase factors being their order-0
    terms; their mixture goes through the M-th power by _series_power.  The
    kernel runs at every M: with no interferers the jet is the constant
    [1, 0, ...], and the phase factors are still those at s0.
    """
    if order < 0 or int(order) != order:
        raise DomainError(f"jet order must be a non-negative integer, got {order}")
    if not 0 <= p_stay <= 1:
        raise DomainError(f"stay probability must lie in [0, 1], got {p_stay}")
    order, M, m = int(order), net.n_interferers, int(fading.interferer_m)
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    coeffs, failures = scaled_phase_jets(s0, m, order, net)
    if M:
        jets = _series_power(p_stay * coeffs[:, 0] + (1.0 - p_stay) * coeffs[:, 1], M)
    else:
        jets = np.zeros((s0.size, order + 1))
        jets[:, 0] = 1.0
    phi = coeffs[:, :, 0]
    failed = [i for i, failure in enumerate(failures) if failure is not None]
    if failed:
        jets[failed] = phi[failed] = math.nan
    return jets, phi, failures
