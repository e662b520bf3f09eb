"""Weighted power means with two-parameter coefficients.

The objects here are scalar: the classical weighted mean

    M_alpha^t(a, b) = ((1-t) a^alpha + t b^alpha)^(1/alpha),

its coefficient-weighted variant

    M_{p,alpha}^{(t,lam)}(a, b) = (C a^alpha + D b^alpha)^(1/alpha),
    C = (1-t)^(1/p) (1-lam)^(1/q),   D = t^(1/p) lam^(1/q),   1/p + 1/q = 1,

the closed-form maximizer of the lam family, and the product lower bound
that the inequality checks lean on.  Conventions used throughout:

* both means are 0 whenever a*b == 0 (the degenerate convention),
* alpha = 0 is the geometric limit, alpha = +/-inf are max / min,
* p = 1 gives q = inf, so C = 1-t and D = t independently of lam.

All functions take and return plain floats; the array kernels used by the
set-summation code live in :mod:`curvilin.curvsum` and are cross-validated
against these scalars in ``tests/test_means.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

_INF = math.inf

SUM_NONNEG = "sum_nonneg"
MIXED_SIGN = "mixed_sign"


def conjugate(p: float) -> float:
    """Hoelder conjugate q with 1/p + 1/q = 1; q = inf when p = 1."""
    if p <= 0:
        raise RangeError(f"p must be positive, got {p}")
    if p == 1.0:
        return _INF
    return p / (p - 1.0)


def _inv(x: float) -> float:
    """1/x on the extended line with 1/(+-inf) = 0."""
    if math.isinf(x):
        return 0.0
    return 1.0 / x


def _harmonic(alphas) -> float:
    """1 / (sum of 1/alpha) with 1/(+-inf) = 0, and inf when the sum is 0.

    Added left to right: builtin ``sum`` is compensated from Python 3.12.
    """
    s = 0.0
    for a in alphas:
        s += _inv(a)
    if s == 0.0:
        return _INF
    return 1.0 / s


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


def _weighted_mean(a: float, b: float, wa: float, wb: float, alpha: float) -> float:
    # Both arguments strictly positive here; the zero convention is
    # handled by the callers.
    if alpha == 0.0:
        return a**wa * b**wb
    if alpha == _INF:
        return max(a, b)
    if alpha == -_INF:
        return min(a, b)
    # Factor out the dominant argument so the inner powers stay in [0, 1];
    # the naive form overflows for ratios like (a/b)**alpha at large |alpha|.
    m = max(a, b) if alpha > 0 else min(a, b)
    s = wa * (a / m) ** alpha + wb * (b / m) ** alpha
    return m * s ** (1.0 / alpha)


def mean_alpha(a: float, b: float, t: float, alpha: float) -> float:
    """Classical weighted mean M_alpha^t(a, b), zero if a*b == 0."""
    if a < 0 or b < 0:
        raise DomainError("mean arguments must be nonnegative")
    if not 0.0 <= t <= 1.0:
        raise RangeError(f"t must lie in [0, 1], got {t}")
    if a == 0.0 or b == 0.0:
        return 0.0
    return _weighted_mean(a, b, 1.0 - t, t, alpha)


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


def sup_mean_over_lambda(a: float, b: float, p: float, t: float, alpha: float) -> float:
    """sup over lam in (0,1) of M_{p,alpha}^{(t,lam)}(a, b) for alpha > 0.

    Equals M_{p*alpha}^t(a, b).  For alpha < 0 the same value is the
    infimum of the family; the formula is returned unchanged.
    """
    if a < 0 or b < 0:
        raise DomainError("mean arguments must be nonnegative")
    if a == 0.0 or b == 0.0:
        return 0.0
    if alpha == 0.0:
        return mean_alpha(a, b, t, 0.0)
    if math.isinf(alpha):
        return mean_alpha(a, b, t, alpha)
    return mean_alpha(a, b, t, p * alpha)


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


def sup_lambda_min_form(a: float, b: float, p: float, t: float, gamma: float) -> float:
    """sup over lam in (0,1) of min(C^(1/gamma) a, D^(1/gamma) b), gamma > 0.

    C is decreasing and D increasing in lam, so the supremum sits at the
    crossing C^(1/gamma) a = D^(1/gamma) b, solved in closed form.  Used
    as the right-hand side of the below-threshold branch of the volume
    inequalities.
    """
    if a < 0 or b < 0:
        raise DomainError("arguments must be nonnegative")
    if gamma <= 0 or math.isinf(gamma):
        raise DomainError(f"min-form bound needs finite gamma > 0, got {gamma}")
    if a == 0.0 or b == 0.0:
        return 0.0
    if p == 1.0:
        return min((1.0 - t) ** (1.0 / gamma) * a, t ** (1.0 / gamma) * b)
    q = conjugate(p)
    # Crossing of (1-lam)^(1/(q*gamma)) K1 = lam^(1/(q*gamma)) K2 with
    # K1 = (1-t)^(1/(p*gamma)) a, K2 = t^(1/(p*gamma)) b.  Everything stays
    # in log space: forming lam and then 1 - lam cancels catastrophically
    # when the crossing sits within ~1e-13 of an endpoint, and the lost
    # digits survive the 1/(q*gamma) root.
    x = q * ((math.log(t) - math.log(1.0 - t)) / p + gamma * (math.log(b) - math.log(a)))
    if x >= 0:
        log_one_minus_lam = -math.log1p(math.exp(-x))
        log_lam = -x + log_one_minus_lam
    else:
        log_lam = -math.log1p(math.exp(x))
        log_one_minus_lam = x + log_lam
    va = math.exp(
        math.log(1.0 - t) / (p * gamma) + log_one_minus_lam / (q * gamma) + math.log(a)
    )
    vb = math.exp(math.log(t) / (p * gamma) + log_lam / (q * gamma) + math.log(b))
    return min(va, vb)


@dataclass(frozen=True)
class PowerVector:
    """Coordinate powers (alpha_1, ..., alpha_{n+1}) for an (n+1)-dim sum.

    The first n entries weight the base coordinates, the last entry the
    vertical one.  gamma is the harmonic-type combination of all entries;
    base_gamma combines the base entries only and sets the threshold that
    separates the mean branch from the min branch of the volume bounds.
    """

    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.alphas) < 1:
            raise RangeError("PowerVector needs at least one entry")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        # +-inf stand for max and min; NaN stands for nothing
        if any(math.isnan(a) for a in self.alphas):
            raise RangeError(f"powers must not be NaN, got {self.alphas}")

    @property
    def n(self) -> int:
        return len(self.alphas) - 1

    @property
    def last(self) -> float:
        return self.alphas[-1]

    @property
    def gamma(self) -> float:
        # a zero entry dominates: the combination degenerates to 0
        if any(a == 0.0 for a in self.alphas):
            return 0.0
        return _harmonic(self.alphas)

    @property
    def base_gamma(self) -> float:
        """Harmonic combination of the base powers alone (n >= 1)."""
        if self.n < 1:
            raise RangeError("base_gamma needs at least one base coordinate")
        if any(a == 0.0 for a in self.alphas[:-1]):
            return 0.0
        return _harmonic(self.alphas[:-1])

    def uses_min_branch(self) -> bool:
        """True when the vertical power sits below -base_gamma."""
        bg = self.base_gamma
        if bg == _INF:
            return False
        return self.last < -bg

    def delta(self, beta: float, k: int) -> float:
        """(1/alpha + 1/beta + k)^(-1) with alpha the vertical power."""
        if beta == 0.0 or self.last == 0.0:
            return 0.0
        s = _inv(self.last) + _inv(beta) + float(k)
        if s == 0.0:
            return _INF
        return 1.0 / s
