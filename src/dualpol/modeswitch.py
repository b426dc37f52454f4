"""BD/BDS mode switching from feedback budgets and long-term statistics.

Random vector quantization over a d-dimensional direction with N_B bits
leaves a distortion of about 2^(-N_B/(d-1)). BD quantizes 2r entries, BDS
only r, so the same budget buys BDS a squared (better) accuracy; whether that
wins depends on how much cross-polarized interference BDS gives up, which is
what the threshold below trades off. ``csit_tau_sq`` gives each scheme its
CSIT quality at a sweep point, in both engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "FeedbackBudget",
    "tau_from_bits",
    "bds_tau_sq",
    "csit_tau_sq",
    "switch_threshold_bits",
    "chi_crossover_scale",
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


def bds_tau_sq(tau_sq_bd):
    """Equal-feedback CSIT quality of BDS given BD's tau^2.

    Halving the quantized dimension squares the distortion bound, so the
    same bit budget that leaves BD at tau^2 leaves BDS at (tau^2)^2.
    """
    return np.minimum(tau_sq_bd * tau_sq_bd, 1.0)


def csit_tau_sq(tau_sq, n_bits, r: int, scheme: str):
    """CSIT quality tau^2 of a scheme, BD or BDS.

    An ``n_bits`` budget gives the scheme its exact RVQ bound; otherwise
    ``tau_sq`` is BD's quality, clamped to 1, and BDS gets its
    equal-feedback equivalent. ``tau_sq`` may hold one value per trial.
    """
    if n_bits is not None:
        return tau_from_bits(FeedbackBudget(n_bits=n_bits, r=r), scheme)
    if np.any(np.asarray(tau_sq) < 0.0):
        raise InvalidInputError("tau_sq must be nonnegative")
    tau_sq = np.minimum(tau_sq, 1.0)
    return tau_sq if scheme == "BD" else bds_tau_sq(tau_sq)


def _inner_ratio(base) -> float:
    """E_{g,p} of ((1+m)^2 - 1) / (xi^2 Upsilon (1+m)^2) from chi = 0 stats:
    ``base`` is BDS's ``rmt.AsymptoticSolution`` at chi = 0, as below."""
    u = (1.0 + base.m0) ** 2
    b0 = base.xi_sq * base.upsilon_intra
    # One user per subgroup (n_bar = 2) leaves no intra-subgroup
    # interference, b0 = 0: the ratio is then infinite.
    with np.errstate(divide="ignore"):
        return float(((u - 1.0) / (b0 * u)).mean())


def chi_crossover_scale(base) -> float:
    """BDS is preferred when chi <= scale * tau_BD^2; this is the scale."""
    return 1.0 + _inner_ratio(base)


def switch_threshold_bits(base, chi: float, r: int) -> float:
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
