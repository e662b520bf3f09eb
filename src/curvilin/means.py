"""Scalar power means and the power vector of a curvilinear sum.

What the sums and the inequality checks call lives here:

* the Hoelder conjugate q with 1/p + 1/q = 1 (q = inf for p = 1),
* the classical weighted mean

      M_alpha^t(a, b) = ((1-t) a^alpha + t b^alpha)^(1/alpha),

* the closed-form supremum over lam of the min-form bound
  min(C^(1/gamma) a, D^(1/gamma) b), with the coefficient pair
  C = (1-t)^(1/p) (1-lam)^(1/q),  D = t^(1/p) lam^(1/q),
* :class:`PowerVector`, the coordinate powers of an (n+1)-dim sum.

Conventions: both means are 0 whenever a*b == 0, alpha = 0 is the
geometric limit and alpha = +/-inf are max / min.  The coefficient pair,
the lam maximizer and the coefficient-weighted mean are computed as array
kernels in :mod:`curvilin.curvsum`; their plain-float reference copies,
with the Hoelder product bound and a brute-force lam search, live in
``tests/scalar_oracles.py`` and the tests check the kernels against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, RangeError

_INF = math.inf


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
