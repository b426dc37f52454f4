"""BD/BDS mode switching from feedback budgets and long-term statistics.

Random vector quantization over a d-dimensional direction with N_B bits
leaves a distortion of about 2^(-N_B/(d-1)). BD quantizes 2r entries, BDS
only r, so the same budget buys BDS a squared (better) accuracy; whether that
wins depends on how much cross-polarized interference BDS gives up, which is
what the threshold below trades off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .rmt import AsymptoticSolution

__all__ = [
    "FeedbackBudget",
    "ModeDecision",
    "tau_from_bits",
    "switch_threshold_bits",
    "chi_crossover_scale",
    "select_mode",
]


@dataclass(frozen=True)
class FeedbackBudget:
    """Per-user feedback bits and the quantized-direction dimension parameter r."""

    n_bits: int
    r: int

    def __post_init__(self):
        if self.n_bits < 1:
            raise InvalidInputError("n_bits must be at least 1")
        if self.r < 1:
            raise InvalidInputError("r must be at least 1")


@dataclass(frozen=True)
class ModeDecision:
    mode: str
    threshold_bits: float
    chi_used: float
    margin: float


def tau_from_bits(budget: FeedbackBudget, scheme: str) -> float:
    """CSIT distortion tau^2 of a scheme under an N_B-bit RVQ budget.

    The RVQ bound is taken with equality: 2^(-N_B/(2r-1)) for BD (full 2r
    direction) and 2^(-N_B/(r-1)) for BDS (co-polarized half).
    """
    if scheme == "BD":
        denom = 2 * budget.r - 1
    elif scheme == "BDS":
        denom = budget.r - 1
        if denom == 0:
            raise InvalidInputError("BDS quantization needs r > 1")
    else:
        raise InvalidInputError(f"unknown scheme {scheme!r}")
    return 2.0 ** (-budget.n_bits / denom)


def _inner_ratio(base: AsymptoticSolution) -> float:
    """E_{g,p} of ((1+m)^2 - 1) / (xi^2 Upsilon (1+m)^2) from chi = 0 stats."""
    u = (1.0 + base.m0) ** 2
    b0 = base.xi_sq * base.upsilon_intra
    # One user per subgroup (n_bar = 2) leaves no intra-subgroup
    # interference, b0 = 0: the ratio is then infinite.
    with np.errstate(divide="ignore"):
        return float(((u - 1.0) / (b0 * u)).mean())


def chi_crossover_scale(base: AsymptoticSolution) -> float:
    """BDS is preferred when chi <= scale * tau_BD^2; this is the scale."""
    return 1.0 + _inner_ratio(base)


def switch_threshold_bits(base: AsymptoticSolution, chi: float, r: int) -> float:
    """Feedback budget below which BDS beats BD at the given chi.

    (2r-1) (log2(1 + E_{g,p}[((1+m)^2-1)/(xi^2 Upsilon (1+m)^2)]) - log2 chi),
    evaluated on chi = 0 asymptotics. chi = 0 returns +inf: with perfect
    polarization isolation BDS is always preferred.
    """
    if chi < 0.0:
        raise InvalidInputError("chi must be nonnegative")
    if chi == 0.0:
        return math.inf
    return (2 * r - 1) * (math.log2(1.0 + _inner_ratio(base)) - math.log2(chi))


def select_mode(budget: FeedbackBudget, chi_or_chi_eff: float,
                base: AsymptoticSolution) -> ModeDecision:
    """Pick BDS iff the bit budget is below the crossover threshold."""
    threshold = switch_threshold_bits(base, chi_or_chi_eff, budget.r)
    mode = "BDS" if budget.n_bits <= threshold else "BD"
    margin = threshold - budget.n_bits
    return ModeDecision(mode=mode, threshold_bits=threshold,
                        chi_used=chi_or_chi_eff, margin=margin)

