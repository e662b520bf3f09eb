"""The report record of one checked inequality, and its verdict rule.

``verify`` builds every report; the modules it draws on compute
quantities only.  The record keeps its own module so that its fields and
JSON shape read apart from the check code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
REFINE = "refine"
FAIL = "fail"


def verdict_for(slack: float, tol: float, can_refine: bool) -> str:
    """pass if the slack clears -tol, otherwise refine while budget remains."""
    if slack >= -tol:
        return PASS
    return REFINE if can_refine else FAIL


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality instance: lhs >= rhs with measured slack."""

    check_id: str
    instance_seed: int
    lhs: float
    rhs: float
    slack: float
    grid_h: float | None
    lambda_points: int | None
    verdict: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in (PASS, REFINE, FAIL):
            raise ValueError(f"unknown verdict {self.verdict!r}")

    def to_json(self) -> dict:
        return {
            "check": self.check_id,
            "seed": self.instance_seed,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "grid": self.grid_h,
            "lambda_points": self.lambda_points,
            "verdict": self.verdict,
        }
