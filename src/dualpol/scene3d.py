"""3D dual-structured precoding over a uniform planar array.

Elevation is handled by a per-region prefilter: a unit vector on the
vertical axis that nulls the other regions' elevation eigenspaces. After the
prefilter, each region reduces to an ordinary 2D azimuth scenario whose
channels are scaled by sqrt(lambda_tilde * path_loss), and the regular
BD/BDS/switching machinery applies region by region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

# precode.build_preprocessors is looked up on the module at call time, so
# wrappers installed there (perfbench/tracer.py) see the call.
from . import precode
from .corrstats import (
    GroupGeometry,
    SpatialCovariance,
    elevation_covariance,
    one_ring_covariance,
)
from .errors import InfeasibleRegionError, InvalidInputError
from .metrics import McSummary, run_paired
from .precode import null_space_modes
from .scenario import GroupScenario, _default_dims, default_theta_grid, power_from_db

__all__ = [
    "ElevationRegion",
    "Scenario3D",
    "elevation_prefilter",
    "path_loss",
    "reduce_to_2d",
    "make_scenario_3d",
    "run_3d_paired",
]


def path_loss(distance: float) -> float:
    """Distance-based power loss 1 / (1 + (d / 60)^3)."""
    return 1.0 / (1.0 + (distance / 60.0) ** 3)


@dataclass(frozen=True)
class ElevationRegion:
    """One elevation ring: its vertical statistics, prefilter, and path loss."""

    cov_elev: SpatialCovariance
    q: np.ndarray = field(repr=False)
    lambda_tilde: float
    path_loss: float


@dataclass(frozen=True)
class Scenario3D:
    """Planar-array cell: elevation regions, each carrying a 2D group scenario.

    Every region gets an equal share of the total power.
    """

    power: float
    regions: tuple
    azimuth_scenario: GroupScenario = field(repr=False)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def with_power_db(self, snr_db: float) -> "Scenario3D":
        return replace(self, power=power_from_db(snr_db))

    def with_chi(self, chi: float) -> "Scenario3D":
        return replace(self, azimuth_scenario=self.azimuth_scenario.with_chi(chi))


def elevation_prefilter(region_covs, l: int, r_trunc: int = 1):
    """Prefilter of region l: the strongest direction orthogonal to the other
    regions' dominant elevation eigenvectors.

    Returns (q, lambda_tilde) with q unit-norm, q^H U_{-lE} = 0 and
    lambda_tilde = q^H R_lE q maximal over the feasible null space. Each
    elevation ring is nearly rank one here (the rings subtend narrow,
    closely spaced angle intervals on a short vertical array), so only the
    top r_trunc eigenvectors per other region are nulled; nulling their full
    effective-rank eigenspaces would also annihilate the own region.
    """
    own = region_covs[l]
    others = [c.dominant_eigvecs(min(r_trunc, c.effective_rank))
              for i, c in enumerate(region_covs) if i != l]
    top = null_space_modes(own.matrix, others, 1)
    if top.shape[1] == 0:
        raise InfeasibleRegionError(
            f"region {l}: other regions' eigenspaces fill the vertical array")
    q = top[:, 0] / np.linalg.norm(top[:, 0])
    lam = float((q.conj() @ own.matrix @ q).real)
    return q, lam


def make_scenario_3d(
    m_e: int = 10,
    m_a: int = 50,
    height: float = 60.0,
    distances=(30.0, 60.0, 100.0),
    G: int = 4,
    n_bar: int = 8,
    spread: float = math.pi / 12,
    spacing: float = 0.5,
    chi: float = 0.0,
    scenario_id: str = "scene3d",
) -> Scenario3D:
    """Build the planar-array scenario: one elevation ring per distance, all
    regions sharing the azimuth group layout.

    The array has m_e vertical times m_a horizontal dual-polarized
    positions (2 m_e m_a antenna elements), both axes uniform at
    ``spacing``. The scatter-ring radius follows the azimuth spread
    (s = d tan(spread)), so nearer regions subtend wider elevation intervals.
    """
    covs_elev = [elevation_covariance(height, d, d * math.tan(spread), m_e, spacing)
                 for d in distances]
    covs_az = tuple(
        one_ring_covariance(GroupGeometry(theta, spread), m_a, spacing)
        for theta in default_theta_grid(G)
    )
    b_bar, r = _default_dims(covs_az, n_bar, 2)
    azimuth = GroupScenario(
        M=2 * m_a, n_bar=n_bar, b_bar=b_bar, r=r, covariances=covs_az, chi=chi,
        dual_pol=True, scenario_id=scenario_id,
    )
    regions = []
    for l, d in enumerate(distances):
        q, lam = elevation_prefilter(covs_elev, l)
        regions.append(ElevationRegion(cov_elev=covs_elev[l], q=q, lambda_tilde=lam,
                                       path_loss=path_loss(d)))
    return Scenario3D(power=1.0, regions=tuple(regions),
                      azimuth_scenario=azimuth)


def reduce_to_2d(scenario3d: Scenario3D, l: int) -> GroupScenario:
    """Effective 2D scenario of region l.

    Channel amplitudes carry sqrt(lambda_tilde * path_loss); the region is
    granted an equal share of the total power.
    """
    if not 0 <= l < scenario3d.n_regions:
        raise InvalidInputError(f"no region {l}")
    region = scenario3d.regions[l]
    gain = math.sqrt(region.lambda_tilde * region.path_loss)
    base = scenario3d.azimuth_scenario
    return replace(
        base,
        power=scenario3d.power / scenario3d.n_regions,
        gains=(gain,) * base.G,
        scenario_id=f"{base.scenario_id}-region{l}",
    )


def run_3d_paired(scenario3d: Scenario3D, modes, n_trials: int, seed: int,
                  points, **kwargs):
    """All schemes over all regions on shared draws; per-trial region sums.

    One ``run_paired`` call per region, on the same ``SweepPoint``s (whose
    power is the whole cell's); one dict per point, like ``run_paired``.
    Each region has its own gain, so the switching schemes solve each
    region's own crossover. The regions share the azimuth geometry
    (``reduce_to_2d`` changes only gains and power), so one build of its BD
    preprocessors serves every region's trials and crossover. A summary
    sums the regions' trial sum rates and averages their ``trial_terms``
    and ``trial_picks``.
    """
    modes = list(modes)
    n_regions = scenario3d.n_regions
    sweep = [p if p.power is None else replace(p, power=p.power / n_regions)
             for p in points]
    preprocessors = precode.build_preprocessors(scenario3d.azimuth_scenario)
    regions = [run_paired(reduce_to_2d(scenario3d, l), modes, n_trials, seed, sweep,
                          stream_base=l * n_trials, preprocessors=preprocessors,
                          **kwargs)
               for l in range(n_regions)]

    def mean(i, m, name):
        per_region = [getattr(r[i][m], name) for r in regions]
        return None if per_region[0] is None else sum(per_region) / n_regions
    return [{m: McSummary(m, sum(r[i][m].trial_sum_rates for r in regions),
                          mean(i, m, "trial_terms"), mean(i, m, "trial_picks"))
             for m in modes} for i in range(len(points))]
