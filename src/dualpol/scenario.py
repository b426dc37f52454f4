"""Scenario descriptions: cell-level long-term state shared by all modules.

A ``GroupScenario`` bundles everything that varies slowly: per-group
covariances, polarization statistics, dimensions and the transmit power.
Short-term quantities (channel realizations, CSIT quality tau) are passed
separately to the Monte Carlo and asymptotic routines; a ``SweepPoint``
sets them for one point of either engine's sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .corrstats import GroupGeometry, one_ring_covariance
from .errors import InvalidConfigurationError

__all__ = ["GroupScenario", "SweepPoint", "make_scenario", "default_theta_grid",
           "power_from_db"]


def power_from_db(snr_db: float) -> float:
    """Transmit power of an SNR in dB; the noise power is one."""
    return 10.0 ** (snr_db / 10.0)


def default_theta_grid(n_groups: int) -> list:
    """Group centers -pi/4 + (g-1) pi/6, the clustered-cell layout."""
    return [-math.pi / 4 + math.pi / 6 * g for g in range(n_groups)]


@dataclass(frozen=True)
class GroupScenario:
    """Long-term description of one cell.

    For a dual-polarized scenario `M` counts antenna elements (M/2 co-located
    pairs) and each covariance is (M/2 x M/2); a single-polarized baseline
    uses full (M x M) covariances. `gains` are per-group amplitude scalings
    applied to the channel (used by the 3D reduction).
    """

    M: int
    n_bar: int
    b_bar: int
    r: int
    covariances: tuple
    chi: float = 0.0
    power: float = 1.0
    dual_pol: bool = True
    gains: tuple | None = None
    scenario_id: str = "scenario"

    def __post_init__(self):
        object.__setattr__(self, "covariances", tuple(self.covariances))
        if self.gains is None:
            object.__setattr__(self, "gains", (1.0,) * self.G)
        else:
            object.__setattr__(self, "gains", tuple(self.gains))
        self.validate()

    @property
    def G(self) -> int:
        return len(self.covariances)

    @property
    def n_users(self) -> int:
        return self.G * self.n_bar

    @property
    def pols(self) -> int:
        """Polarizations of the array: 2 dual-polarized, 1 single."""
        return 2 if self.dual_pol else 1

    @property
    def alpha(self) -> float:
        """RZF regularization N_bar / (B_bar P), the MMSE-consistent choice."""
        return self.n_bar / (self.b_bar * self.power)

    def validate(self):
        if not 0.0 < self.power < math.inf:
            raise InvalidConfigurationError(f"power must be positive and finite: {self.power}")
        if not self.covariances:
            raise InvalidConfigurationError("a scenario needs at least one group")
        half = self.M // self.pols
        for cov in self.covariances:
            if cov.dim != half:
                raise InvalidConfigurationError(
                    f"covariance dimension {cov.dim} does not match array size {half}"
                )
        if self.M % self.pols != 0:
            raise InvalidConfigurationError("dual-polarized M must be even")
        if self.n_bar % self.pols != 0:
            raise InvalidConfigurationError("n_bar must be even (half per polarization)")
        if self.b_bar % self.pols != 0:
            raise InvalidConfigurationError(
                f"b_bar must be even (half per polarization): {self.b_bar}")
        if self.r < 1:
            raise InvalidConfigurationError("r must be at least 1")
        min_rank = min(c.effective_rank for c in self.covariances)
        if self.r > min_rank:
            raise InvalidConfigurationError(
                f"r={self.r} exceeds the smallest effective rank {min_rank}"
            )
        room = self.pols * (half - (self.G - 1) * self.r)
        if not self.n_bar <= self.b_bar:
            raise InvalidConfigurationError(
                f"violated n_bar <= b_bar: {self.n_bar} > {self.b_bar}"
            )
        if not self.b_bar <= room:
            raise InvalidConfigurationError(
                f"violated b_bar <= {self.pols}*(M/{self.pols} - (G-1) r) = {room}"
            )
        # Single-polarized baselines (the equal-aperture quarter-wavelength
        # array) intentionally run with b_bar above the covariance rank.
        if self.dual_pol and not self.b_bar <= 2 * min_rank:
            raise InvalidConfigurationError(
                f"violated b_bar <= 2*r_g: {self.b_bar} > {2 * min_rank}"
            )

    def with_power(self, power: float) -> "GroupScenario":
        return replace(self, power=power)

    def with_power_db(self, snr_db: float) -> "GroupScenario":
        return replace(self, power=power_from_db(snr_db))

    def with_chi(self, chi: float) -> "GroupScenario":
        return replace(self, chi=chi)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep over a fixed geometry, in either engine.

    ``power`` and ``chi`` default to the scenario's. ``tau_sq`` and
    ``n_bits`` set the schemes' CSIT qualities as in
    ``modeswitch.csit_tau_sq``; a Monte Carlo run's ``chi_dist``/
    ``tau_sq_dist`` draw chi/tau^2 per trial instead. A positive
    ``theta_max`` turns each user's antenna by a random angle (Monte Carlo
    only).
    """

    power: float | None = None
    chi: float | None = None
    tau_sq: float = 0.0
    n_bits: int | None = None
    theta_max: float = 0.0

    def on(self, scenario: GroupScenario) -> "SweepPoint":
        """This point with an unset power and chi taken from the scenario."""
        return replace(self, power=scenario.power if self.power is None else self.power,
                       chi=scenario.chi if self.chi is None else self.chi)


def make_scenario(
    M: int = 120,
    G: int = 4,
    n_bar: int = 8,
    spacing: float = 0.5,
    spread: float = math.pi / 12,
    thetas=None,
    chi: float = 0.0,
    power: float = 1.0,
    b_bar: int | None = None,
    r: int | None = None,
    dual_pol: bool = True,
    scenario_id: str = "scenario",
) -> GroupScenario:
    """Build a uniform-linear-array scenario from one-ring geometry, one
    group per entry of ``thetas`` (default: ``default_theta_grid(G)``).

    Defaults follow the clustered four-group cell used throughout the
    experiments. When not given, r is the smallest effective rank across
    groups and b_bar = min(2 n_bar, 2 r) for dual polarization,
    min(n_bar, r) for one. r is then capped so that every group keeps
    enough interference-free dimensions for the preprocessor; a single
    group's cap is the smallest rank.
    """
    if thetas is None:
        thetas = default_theta_grid(G)
    pols = 2 if dual_pol else 1
    covs = tuple(
        one_ring_covariance(GroupGeometry(theta, spread), M // pols, spacing)
        for theta in thetas
    )
    if not covs:
        raise InvalidConfigurationError("a scenario needs at least one group")
    min_rank = min(c.effective_rank for c in covs)
    r = min_rank if r is None else r
    if b_bar is None:
        b_bar = pols * min(n_bar, r)
    G = len(covs)
    r_cap = (M // pols - b_bar // pols) // (G - 1) if G > 1 else min_rank
    return GroupScenario(
        M=M, n_bar=n_bar, b_bar=b_bar, r=min(r, r_cap), covariances=covs, chi=chi,
        power=power, dual_pol=dual_pol, scenario_id=scenario_id,
    )
