"""Scalar reference formulas the array kernels are checked against.

The sums run the coefficient pair, the lam maximizer and the weighted
means as array kernels (:class:`curvilin.SumSpec`, :func:`curvilin.combine`).
These plain-float copies of the same formulas exist only so the tests can
compare the kernels against an independent, readable implementation:

    M_{p,alpha}^{(t,lam)}(a, b) = (C a^alpha + D b^alpha)^(1/alpha),
    C = (1-t)^(1/p) (1-lam)^(1/q),   D = t^(1/p) lam^(1/q),   1/p + 1/q = 1,

the closed-form maximizer of the lam family, a brute-force grid search
over lam, and the Hoelder product lower bound.  The conventions are those
of :mod:`curvilin.means`: both means are 0 whenever a*b == 0, alpha = 0 is
the geometric limit, alpha = +/-inf are max / min, and p = 1 gives
q = inf, so C = 1-t and D = t independently of lam.

``superlevel``, the cell set of one threshold of a profile, is a helper of
the same kind: the library keeps only the batched ``superlevel_masks``.

``normalize_loop`` and ``curvilinear_sum_1d_loop`` are copies of the
``IntervalUnion`` constructor's merge and of ``curvsum.curvilinear_sum_1d``
that take raw (lo, hi) pairs, merge Python tuples and loop over interval
pairs, where the library merges one sorted array and takes every image in
one broadcast.  They return plain tuples and never build an
``IntervalUnion``; the loop sum has no image budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from curvilin.curvsum import CURVILINEAR, _lambda_values, combine
from curvilin.errors import DegenerateInputError, DomainError, RangeError, RegimeError
from curvilin.means import _INF, _inv, _weighted_mean, conjugate
from curvilin.sets import GridFunction, GridPointSet, superlevel_masks

SUM_NONNEG = "sum_nonneg"
MIXED_SIGN = "mixed_sign"


@dataclass(frozen=True)
class MeanParams:
    """Coefficient parameters (p, t, lam) with p > 0 and t, lam in (0, 1)."""

    p: float
    t: float
    lam: float

    def __post_init__(self) -> None:
        if self.p <= 0:
            raise RangeError(f"p must be positive, got {self.p}")
        if not 0.0 < self.t < 1.0:
            raise RangeError(f"t must lie in (0, 1), got {self.t}")
        if not 0.0 < self.lam < 1.0:
            raise RangeError(f"lam must lie in (0, 1), got {self.lam}")

    @property
    def q(self) -> float:
        return conjugate(self.p)

    def coefficients(self) -> tuple[float, float]:
        return lp_coefficients(self.p, self.lam, self.t)


def lp_coefficients(p: float, lam: float, t: float) -> tuple[float, float]:
    """The coefficient pair (C, D) for given (p, lam, t).

    For p = 1 the conjugate exponent is infinite and the lam factors
    collapse to 1, so (C, D) = (1-t, t).
    """
    if p <= 0:
        raise RangeError(f"p must be positive, got {p}")
    if not 0.0 < lam < 1.0:
        raise RangeError(f"lam must lie in (0, 1), got {lam}")
    if not 0.0 < t < 1.0:
        raise RangeError(f"t must lie in (0, 1), got {t}")
    if p == 1.0:
        return 1.0 - t, t
    invq = 1.0 - 1.0 / p
    c = (1.0 - t) ** (1.0 / p) * (1.0 - lam) ** invq
    d = t ** (1.0 / p) * lam**invq
    return c, d


def mean_p_alpha(a: float, b: float, params: MeanParams, alpha: float) -> float:
    """Coefficient-weighted mean M_{p,alpha}^{(t,lam)}(a, b), zero if a*b == 0."""
    if a < 0 or b < 0:
        raise DomainError("mean arguments must be nonnegative")
    if a == 0.0 or b == 0.0:
        return 0.0
    c, d = params.coefficients()
    return _weighted_mean(a, b, c, d, alpha)


def optimal_lambda(a: float, b: float, p: float, t: float, alpha: float) -> float:
    """The lam in (0, 1) at which lam -> M_{p,alpha}^{(t,lam)}(a, b) is extremal.

    Solves the Hoelder equality condition; at the returned lam the
    coefficient-weighted mean equals M_{p*alpha}^t(a, b) (a maximum for
    alpha > 0, a minimum for alpha < 0).  Requires a, b > 0 and finite
    nonzero alpha.
    """
    if a <= 0 or b <= 0:
        raise DomainError("optimal_lambda needs strictly positive arguments")
    if alpha == 0.0 or math.isinf(alpha):
        raise DomainError("optimal_lambda needs finite nonzero alpha")
    if not 0.0 < t < 1.0:
        raise RangeError(f"t must lie in (0, 1), got {t}")
    if p <= 0:
        raise RangeError(f"p must be positive, got {p}")
    # 1 / (1 + ((1-t)/t) (a/b)^(p*alpha)); the ratio form cannot produce
    # nan, and the clamp keeps extreme ratios inside the open interval.
    r = (1.0 - t) / t * (a / b) ** (p * alpha)
    lam = 1.0 / (1.0 + r)
    return min(max(lam, 1e-300), 1.0 - 1e-16)


def lambda_grid_sup(
    a: float, b: float, p: float, t: float, alpha: float, num: int = 10_000
) -> tuple[float, float]:
    """Brute-force sup of lam -> M_{p,alpha}^{(t,lam)}(a, b) over a uniform grid.

    Returns (value, argmax lam).  This is the reference the closed forms
    are validated against; it makes no use of optimal_lambda.
    """
    if a <= 0 or b <= 0:
        raise DomainError("lambda_grid_sup needs strictly positive arguments")
    lam = np.arange(1, num + 1, dtype=float) / (num + 1)
    if p == 1.0:
        c = np.full_like(lam, 1.0 - t)
        d = np.full_like(lam, t)
    else:
        invq = 1.0 - 1.0 / p
        c = (1.0 - t) ** (1.0 / p) * (1.0 - lam) ** invq
        d = t ** (1.0 / p) * lam**invq
    if alpha == 0.0:
        vals = a**c * b**d
    elif alpha == _INF:
        vals = np.full_like(lam, max(a, b))
    elif alpha == -_INF:
        vals = np.full_like(lam, min(a, b))
    else:
        vals = (c * a**alpha + d * b**alpha) ** (1.0 / alpha)
    k = int(np.argmax(vals))
    return float(vals[k]), float(lam[k])


def gamma_pair(alpha: float, beta: float) -> float:
    """Combined exponent gamma with 1/gamma = 1/alpha + 1/beta.

    Conventions: gamma = 0 if either exponent is 0; gamma = -inf when
    beta = -alpha (the reciprocals cancel); 1/(+-inf) counts as 0.
    """
    if alpha == 0.0 or beta == 0.0:
        return 0.0
    s = _inv(alpha) + _inv(beta)
    if s == 0.0:
        if alpha == _INF or beta == _INF:
            return _INF
        return -_INF
    return 1.0 / s


def holder_product_bound(
    a: float,
    b: float,
    c: float,
    d: float,
    params: MeanParams,
    alpha: float,
    beta: float,
) -> tuple[float, float, str]:
    """Product inequality M_{p,alpha}(a,b) * M_{p,beta}(c,d) >= rhs.

    Returns (lhs, rhs, branch).  For alpha + beta >= 0 the bound is the
    combined mean M_{p,gamma}(ac, bd) with 1/gamma = 1/alpha + 1/beta
    (branch ``sum_nonneg``).  For alpha + beta < 0 with alpha*beta < 0 the
    bound is min(C^(1/gamma) ac, D^(1/gamma) bd) where gamma > 0
    (branch ``mixed_sign``).  Other sign patterns are out of domain.
    """
    for v in (a, b, c, d):
        if v < 0:
            raise DomainError("mean arguments must be nonnegative")
    if (alpha == _INF and beta == -_INF) or (alpha == -_INF and beta == _INF):
        raise DomainError("alpha + beta undefined for opposite infinities")
    lhs = mean_p_alpha(a, b, params, alpha) * mean_p_alpha(c, d, params, beta)
    s = alpha + beta
    gamma = gamma_pair(alpha, beta)
    if s >= 0:
        return lhs, mean_p_alpha(a * c, b * d, params, gamma), SUM_NONNEG
    if alpha * beta < 0:
        # Here gamma = alpha*beta / (alpha+beta) > 0.
        cc, dd = params.coefficients()
        rhs = min(cc ** (1.0 / gamma) * a * c, dd ** (1.0 / gamma) * b * d)
        return lhs, rhs, MIXED_SIGN
    raise DomainError(
        f"no product bound for alpha={alpha}, beta={beta}: "
        "alpha + beta < 0 requires opposite signs"
    )


def superlevel(profile: GridFunction, r: float) -> GridPointSet:
    """Cells where the profile reaches the fraction r of its sup."""
    corners = profile.grid.cell_lower_corners()[superlevel_masks(profile, (r,))[0]]
    return GridPointSet(corners, profile.grid.spacing)


def normalize_loop(pairs) -> tuple[tuple[float, float], ...]:
    """Canonical form of raw (lo, hi) pairs: sorted, disjoint, zero lengths dropped.

    The first pair outside 0 <= lo <= hi < inf, in input order, is refused
    with the message ``IntervalUnion`` gives.
    """
    ivs = [(float(a), float(b)) for a, b in pairs]
    for a, b in ivs:
        if not 0 <= a <= b < math.inf:  # NaN fails every comparison
            raise DomainError(f"bad interval [{a}, {b}]")
    merged: list[tuple[float, float]] = []
    for a, b in sorted(iv for iv in ivs if iv[1] > iv[0]):
        if merged and a <= merged[-1][1]:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return tuple(merged)


def _length(pieces) -> float:
    total = 0.0  # left to right, as IntervalUnion.volume adds
    for a, b in pieces:
        total += b - a
    return total


def curvilinear_sum_1d_loop(k, l, spec) -> tuple[tuple[float, float], ...]:
    """Exact curvilinear sum of raw (lo, hi) pairs, one interval pair at a time.

    Per (lam, interval pair) the image of [a,b] x [c,d] under the
    combined mean is the interval [m(a,c), m(b,d)]; the result is the
    merged union over ``curvsum._lambda_values`` with the length and
    right-endpoint pairs, so the lam set is the library's.  Both operands
    and the result are merged by ``normalize_loop``, never by
    ``IntervalUnion``.
    """
    if spec.alphas.n != 0:
        raise DomainError("curvilinear_sum_1d needs a single-entry power vector")
    if spec.mode != CURVILINEAR:
        raise RegimeError("interval path supports curvilinear mode only")
    if spec.p < 1.0:
        raise RegimeError("interval path supports p >= 1 only")
    alpha = spec.alphas.last
    ka = normalize_loop(k)
    la = normalize_loop(l)
    if not ka or not la:
        raise DegenerateInputError("summand has empty support")

    pairs = [q for a, b in ka for c, d in la for q in ((b - a, d - c), (b, d))]
    # _lambda_values reads only each operand's volume
    lam_arr = _lambda_values(spec, SimpleNamespace(volume=_length(ka)),
                             SimpleNamespace(volume=_length(la)), pairs)
    c_arr, d_arr = spec.coefficients(lam_arr)

    pieces = []
    for a, b in ka:
        for c, d in la:
            # max/min powers ignore the lam coefficients; force lam shape
            lo = np.broadcast_to(combine(a, c, c_arr, d_arr, alpha), lam_arr.shape)
            hi = np.broadcast_to(combine(b, d, c_arr, d_arr, alpha), lam_arr.shape)
            pieces.extend(zip(lo.tolist(), hi.tolist()))
    return normalize_loop(pieces)
