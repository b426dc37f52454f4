"""Deterministic equivalents of the dual-structured precoding SINRs.

Large-system limits are computed from the resolvent fixed point: each user
class contributes a scalar e_i solving a self-consistent trace equation, and
every SINR ingredient (signal strength m, power normalization Psi, intra and
inter interference Upsilon) follows from the fixed point and closed linear
systems for the resolvent derivatives. No numerical differentiation is used
anywhere.

``asym_sweep`` evaluates a whole sweep on one geometry in one call, the
counterpart of ``metrics.run_paired(points=)``. The points share the BD
preprocessors, each group's eigenbasis and the inter-group couplings
(``_Basis``). BD's fixed point and derivative systems depend on (power,
chi) and are solved once per distinct pair; BDS's classes do not depend on
chi, so they are solved once per power and chi only scales the cross and
inter-group terms. The CSIT quality tau^2 enters only the final SINR
assembly (``AsymptoticSolution.at_tau``). ``asym_bd`` and ``asym_bds`` are
one-point sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NonConvergenceError, NumericalError
from .precode import build_preprocessors
from .scenario import GroupScenario

__all__ = [
    "FixedPointProblem",
    "FixedPointResult",
    "AsymptoticSolution",
    "DePoint",
    "solve_fixed_point",
    "asym_sweep",
    "asym_bd",
    "asym_bds",
    "approx_bds_chi",
    "bds_c0",
]

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 2000


@dataclass(frozen=True)
class FixedPointProblem:
    """Resolvent fixed point data: user-class covariances with multiplicities,
    a Hermitian shift S, the (negative) argument z, and the trace normalizer M.

    Classes and S are either all matrices or all 1-D: the eigenvalues of
    matrices that share one eigenbasis."""

    covariances: tuple
    multiplicities: tuple
    S: np.ndarray | None
    z: float
    M: int

    def __post_init__(self):
        if self.z >= 0.0:
            raise InvalidInputError("z must be negative")
        if len(self.covariances) != len(self.multiplicities):
            raise InvalidInputError("one multiplicity per covariance class")
        object.__setattr__(self, "covariances", tuple(np.asarray(R) for R in self.covariances))
        object.__setattr__(self, "multiplicities", tuple(int(n) for n in self.multiplicities))
        forms = {R.ndim for R in self.covariances}
        if self.S is not None:
            forms.add(np.ndim(self.S))
        if len(forms) > 1:
            raise InvalidInputError("classes and S must be all diagonal (1-D) or all matrices")


@dataclass(frozen=True)
class FixedPointResult:
    e: np.ndarray
    T: np.ndarray = field(repr=False)
    iterations: int
    residual: float


def solve_fixed_point(problem: FixedPointProblem, tol: float = FIXED_POINT_TOL,
                      max_iter: int = FIXED_POINT_MAX_ITER) -> FixedPointResult:
    """Solve e_i = (1/M) tr(R_i T(e)) with T(e) = ((1/M) sum_j n_j R_j/(1+e_j) + S - zI)^-1.

    For 1-D (diagonal) classes T is the vector of its eigenvalues and every
    trace a dot product.

    Fixed-point iteration from e = 1/alpha with step damping when the
    residual stops decreasing.
    """
    k = len(problem.covariances)
    if problem.covariances:
        dim = problem.covariances[0].shape[0]
    elif problem.S is not None:
        dim = problem.S.shape[0]
    else:
        dim = problem.M
    diagonal = np.ndim(problem.covariances[0] if k else problem.S) == 1
    if diagonal:
        base = (problem.S if problem.S is not None else np.zeros(dim)) - problem.z
        invert, trace = np.reciprocal, np.dot
    else:
        S = problem.S if problem.S is not None else np.zeros((dim, dim))
        base = S - problem.z * np.eye(dim)
        invert = np.linalg.inv

        def trace(R, T):
            return np.trace(R @ T).real
    if k == 0:
        return FixedPointResult(e=np.zeros(0), T=invert(base), iterations=0, residual=0.0)
    alpha = -problem.z
    e = np.full(k, 1.0 / alpha)
    damp = 1.0
    prev_res = np.inf

    def resolvent(ev):
        acc = base.astype(float if diagonal else complex)
        for R, n, ej in zip(problem.covariances, problem.multiplicities, ev):
            acc += (n / (problem.M * (1.0 + ej))) * R
        return invert(acc)

    for it in range(1, max_iter + 1):
        T = resolvent(e)
        e_new = np.array([trace(R, T) / problem.M for R in problem.covariances])
        res = float(np.max(np.abs(e_new - e)))
        if res < tol:
            return FixedPointResult(e=e_new, T=resolvent(e_new),
                                    iterations=it, residual=res)
        if res > prev_res:
            damp = 0.5
        e = damp * e_new + (1.0 - damp) * e
        prev_res = res
    raise NonConvergenceError(
        f"fixed point not converged after {max_iter} iterations", residual=res)


@dataclass(frozen=True)
class AsymptoticSolution:
    """Converged deterministic-equivalent quantities of one scheme.

    Arrays are indexed (group, polarization) with polarization order (v, h).
    ``upsilon_intra`` is the raw intra-(sub)group term (to be weighted by the
    own xi^2); ``upsilon_cross`` and ``upsilon_inter`` are already weighted by
    the interfering precoders' xi^2.
    """

    scheme: str
    tau_sq: float
    power: float
    n_streams: int
    n_bar: int
    m0: np.ndarray
    m_prime: np.ndarray
    xi_sq: np.ndarray
    psi: np.ndarray
    upsilon_intra: np.ndarray
    upsilon_cross: np.ndarray
    upsilon_inter: np.ndarray
    gamma: np.ndarray
    sum_rate: float
    iterations: int
    residual: float
    extras: dict = field(default_factory=dict, repr=False)

    def at_tau(self, tau_sq: float) -> "AsymptoticSolution":
        """Re-assemble the SINR at another CSIT quality; the fixed point,
        derivatives and xi are tau-independent."""
        gamma = _assemble_gamma(
            self.power, self.n_streams, tau_sq, self.m0, self.xi_sq,
            self.upsilon_intra, self.upsilon_cross, self.upsilon_inter)
        return replace(self, tau_sq=tau_sq, gamma=gamma,
                       sum_rate=_sum_rate(gamma, self.n_bar))

    def mean_gamma(self) -> float:
        return float(self.gamma.mean())


def _assemble_gamma(power, n_streams, tau_sq, m0, xi_sq, ups_intra,
                    ups_cross, ups_inter):
    u = (1.0 + m0) ** 2
    signal = (power / n_streams) * xi_sq * (1.0 - tau_sq) * m0 ** 2
    intra = xi_sq * ups_intra * (1.0 - tau_sq * (1.0 - u))
    other = (1.0 + ups_cross + ups_inter) * u
    return signal / (intra + other)


def _sum_rate(gamma, n_bar):
    return float((n_bar / 2.0) * np.log2(1.0 + gamma).sum())


def _eigh(C):
    """Eigenpairs of a Hermitian C.

    The eigenvalues are the Rayleigh quotients of eigh's eigenvectors, taken
    in long double. Where that is wider than double, their absolute error
    falls from eigh's ~ eps ||C|| to ~ ||C v - lam v||^2 / gap. At high SNR
    the DE needs it: resolvent eigenvalues near 1/alpha amplify the error
    of the small eigenvalues (about 4e-12 relative in m' and psi at 30 dB
    with plain eigh).
    """
    _, V = np.linalg.eigh(C)
    Vx = V.astype(np.clongdouble)
    lam = np.sum(Vx.conj() * (C.astype(np.clongdouble) @ Vx), axis=0).real
    return lam.astype(float), V


class _Basis:
    """What a whole sweep shares on one geometry: each group's projected
    covariance C_g = B_g^H R_g B_g = V_g diag(lam_g) V_g^H and the
    inter-group couplings. ``coupling[g][l]`` is the diagonal of
    D_gl = B_l^H R_g B_l in group l's eigenbasis. Covariances are
    gain-scaled; B_g is the per-polarization block of the BD preprocessor.
    """

    def __init__(self, scenario: GroupScenario):
        if not scenario.dual_pol:
            raise InvalidInputError(
                "the deterministic equivalents need a dual-polarized array")
        self.scenario = scenario
        R = [cov.matrix * gain ** 2
             for cov, gain in zip(scenario.covariances, scenario.gains)]
        B = [pre.B_s for pre in build_preprocessors(scenario)]
        eig = [_eigh(B[g].conj().T @ R[g] @ B[g]) for g in range(scenario.G)]
        self.lam = [lam for lam, _ in eig]
        self.coupling = [
            [None if l == g else
             np.sum(V.conj() * ((B[l].conj().T @ R[g] @ B[l]) @ V), axis=0).real
             for l, (_, V) in enumerate(eig)]
            for g in range(scenario.G)]


class _Spectral:
    """Fixed points and derivative systems of all groups for one set of user
    classes and one argument z, in the eigenbasis of a ``_Basis``.

    Every user class of group g commutes with C_g, so ``classes(lam_g)``
    gives them as diagonals d (k, dim) and the resolvent T_g as a vector t.
    Each trace tr(R_q T X T) then is ``w[g][q] @ x`` with w = d t^2 and
    x = diag(V_g^H X V_g).
    """

    def __init__(self, basis: _Basis, classes, dim: int, z: float):
        n = basis.scenario.n_bar // 2
        self.dim = dim
        self.classes = [classes(lam) for lam in basis.lam]
        self.m0 = np.zeros((len(self.classes), len(self.classes[0])))
        self.w, self.jac = [], []
        self.iterations = 0
        self.residual = 0.0
        for g, d in enumerate(self.classes):
            res = solve_fixed_point(FixedPointProblem(
                covariances=tuple(d), multiplicities=(n,) * len(d),
                S=None, z=z, M=dim))
            self.m0[g] = res.e
            self.iterations = max(self.iterations, res.iterations)
            self.residual = max(self.residual, res.residual)
            w = d * res.T ** 2
            # J[p, q] = (n/dim) tr(R_p T R_q T) / (dim (1 + e_q)^2)
            J = (n / dim) * (w @ d.T) / (dim * (1.0 + res.e) ** 2)
            self.w.append(w)
            self.jac.append(np.eye(len(d)) - J)

    def derivative(self, g: int, x) -> np.ndarray:
        """Derivative traces m'_q of group g against the diagonal
        perturbation(s) x (..., dim): (I - J) m' = [tr(R_q T X T) / dim]_q."""
        rhs = np.asarray(x) @ self.w[g].T / self.dim
        try:
            return np.linalg.solve(self.jac[g], rhs.T).T
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular (I - J) derivative system") from exc


class DePoint(NamedTuple):
    """One cell of a deterministic-equivalent sweep: ``scheme`` ("BD" or
    "BDS") at a transmit power, chi and CSIT quality tau^2."""

    scheme: str
    power: float
    chi: float
    tau_sq: float = 0.0


def asym_sweep(scenario: GroupScenario, points) -> list:
    """Deterministic equivalents of a whole sweep on one geometry.

    ``points`` is a sequence of ``DePoint``; the scenario's own power and
    chi are not read. Returns one ``AsymptoticSolution`` per point, equal
    bit for bit to that of its one-point call (``asym_bd``/``asym_bds`` on
    the scenario at the point's power and chi). The points share one
    ``_Basis``; BD's fixed point and derivative systems are solved once per
    distinct (power, chi), BDS's once per distinct power, and tau^2 enters
    only the SINR assembly (``AsymptoticSolution.at_tau``).
    """
    points = list(points)
    unknown = sorted({p.scheme for p in points} - {"BD", "BDS"})
    if unknown:
        raise InvalidInputError(f"unknown schemes: {', '.join(unknown)}")
    basis = _Basis(scenario)
    solved = {}
    out = []
    for p in points:
        if p.scheme == "BD":
            key = ("BD", p.power, p.chi)
            if key not in solved:
                solved[key] = _bd(basis, p.power, p.chi)
            sol = solved[key]
        else:
            key = ("BDS", p.power)
            if key not in solved:
                solved[key] = _bds(basis, p.power)
            units = solved[key].extras
            sol = replace(solved[key], upsilon_cross=p.chi * units["cross_unit"],
                          upsilon_inter=(1.0 + p.chi) * units["inter_unit"])
        out.append(sol.at_tau(p.tau_sq))
    return out


def asym_bd(scenario: GroupScenario, tau_sq: float = 0.0) -> AsymptoticSolution:
    """Full deterministic equivalent of the BD scheme (both polarizations)."""
    return asym_sweep(scenario, [DePoint("BD", scenario.power, scenario.chi, tau_sq)])[0]


def asym_bds(scenario: GroupScenario, tau_sq: float = 0.0) -> AsymptoticSolution:
    """Full deterministic equivalent of the BDS scheme."""
    return asym_sweep(scenario, [DePoint("BDS", scenario.power, scenario.chi, tau_sq)])[0]


def _bd(basis: _Basis, P: float, chi: float) -> AsymptoticSolution:
    """BD at power P and chi, perfect CSIT.

    In the eigenbasis of C_g the class of polarization v, blockdiag(C_g,
    chi C_g), is diag(lam, chi lam), and that of h its mirror.
    """
    sc = basis.scenario
    G, n_bar, b_bar, N = sc.G, sc.n_bar, sc.b_bar, sc.n_users
    alpha = n_bar / (b_bar * P)

    def pol(x):
        return np.stack([np.concatenate([x, chi * x]), np.concatenate([chi * x, x])])

    sp = _Spectral(basis, pol, b_bar, -alpha)
    m0 = sp.m0
    u = (1.0 + m0) ** 2
    m_prime = np.array([sp.derivative(g, np.ones(b_bar)) for g in range(G)])
    psi = (P / (2.0 * b_bar * G)) * np.sum(m_prime / u, axis=1)
    xi_sq_g = P / (G * psi)

    ups_intra = np.zeros((G, 2))
    ups_inter = np.zeros((G, 2))
    for g in range(G):
        # mp[p, q]: class q's derivative against class p; n_bar/2 - 1
        # same-polarization users and n_bar/2 cross-polarized ones.
        mp = sp.derivative(g, sp.classes[g]) / u[g]
        ups_intra[g] = (P / N) / b_bar * ((n_bar / 2.0 - 1.0) * np.diag(mp)
                                          + (n_bar / 2.0) * mp[[0, 1], [1, 0]])
        for l in range(G):
            if l != g:
                mp_gl = sp.derivative(l, pol(basis.coupling[g][l])) / u[l]
                ups_inter[g] += xi_sq_g[l] * (P / (2.0 * N)) * (n_bar / b_bar) * mp_gl.sum(axis=1)

    xi_sq = np.repeat(xi_sq_g[:, None], 2, axis=1)
    gamma = _assemble_gamma(P, N, 0.0, m0, xi_sq, ups_intra, np.zeros((G, 2)), ups_inter)
    return AsymptoticSolution(
        scheme="BD", tau_sq=0.0, power=P, n_streams=N, n_bar=n_bar,
        m0=m0, m_prime=m_prime, xi_sq=xi_sq,
        psi=np.repeat(psi[:, None], 2, axis=1),
        upsilon_intra=ups_intra, upsilon_cross=np.zeros((G, 2)),
        upsilon_inter=ups_inter, gamma=gamma,
        sum_rate=_sum_rate(gamma, n_bar), iterations=sp.iterations,
        residual=sp.residual)


def _bds(basis: _Basis, P: float) -> AsymptoticSolution:
    """BDS at power P, chi = 0 and perfect CSIT.

    Each co-polarized subgroup has a scalar fixed point on its (B_bar/2)-dim
    effective system; cross-polarized and inter-group interference enter
    through chi-weighted projected covariances. The subgroup regularizer
    matches the precoder (n_bar / P absolute, i.e. twice alpha per
    dimension), which makes the chi = 0 solution coincide with BD's exactly.
    Both polarizations share every quantity; arrays are (G, 2) throughout.
    """
    sc = basis.scenario
    G, n_bar, b_bar, N = sc.G, sc.n_bar, sc.b_bar, sc.n_users
    alpha = n_bar / (b_bar * P)
    beta = b_bar // 2

    sp = _Spectral(basis, lambda lam: lam[None, :], beta, -2.0 * alpha)
    m0 = np.repeat(sp.m0, 2, axis=1)
    u = (1.0 + m0) ** 2
    m_prime = np.repeat([sp.derivative(g, np.ones(beta)) for g in range(G)], 2, axis=1)
    psi = (P / (G * b_bar)) * m_prime / u
    # Deterministic equivalent of the per-subgroup normalization
    # xi^2 = (n_bar/2) / tr(H^H K^H K H), i.e. P / (2 G Psi).
    xi_sq = P / (2.0 * G * psi)

    mp_gg = np.array([sp.derivative(g, sp.classes[g][0]) for g in range(G)])
    ups_intra = ((n_bar / 2.0 - 1.0) / beta) * (P / N) * mp_gg / u

    # Interference of subgroup (l, q) onto users of (g, p): the projected
    # covariance is B_lq^H R_gp B_lq = C or D scaled by chi when q != p, so
    # the cross term is chi cross_unit and the inter-group one
    # (1 + chi) inter_unit (formed in ``asym_sweep``): slope chi_slope in chi.
    cross_unit = xi_sq * (P / N) * (n_bar / b_bar) * mp_gg / u
    inter_unit = np.zeros((G, 2))
    for g in range(G):
        for l in range(G):
            if l != g:
                mp_gl = sp.derivative(l, basis.coupling[g][l])
                inter_unit[g] += xi_sq[l] * (P / N) * (n_bar / b_bar) * mp_gl / u[l]

    gamma = _assemble_gamma(P, N, 0.0, m0, xi_sq, ups_intra, np.zeros((G, 2)), inter_unit)
    return AsymptoticSolution(
        scheme="BDS", tau_sq=0.0, power=P, n_streams=N, n_bar=n_bar,
        m0=m0, m_prime=m_prime, xi_sq=xi_sq, psi=psi,
        upsilon_intra=ups_intra, upsilon_cross=np.zeros((G, 2)),
        upsilon_inter=inter_unit, gamma=gamma,
        sum_rate=_sum_rate(gamma, n_bar), iterations=sp.iterations,
        residual=sp.residual,
        extras={"chi_slope": cross_unit + inter_unit,
                "cross_unit": cross_unit, "inter_unit": inter_unit})


def bds_c0(solution_at_zero: AsymptoticSolution) -> float:
    """Interference growth coefficient of the BDS SINR in chi.

    The weighted interference sum is affine in chi, so per subgroup the SINR
    obeys gamma(chi) = gamma(0) / (1 + c chi) exactly with
    c = slope * (1+m)^2 / denominator(0); c0 averages c over (g, p). (The
    compact closed-form coefficient replaces the cross-polarized multiplicity
    n_bar/2 by n_bar/2 - 1 and drops inter-group leakage, which overshoots
    the decay for small groups; the slope form is exact.)
    """
    tau_sq = solution_at_zero.tau_sq
    m0 = solution_at_zero.m0
    slope = solution_at_zero.extras["chi_slope"]
    b0 = solution_at_zero.xi_sq * solution_at_zero.upsilon_intra
    u = (1.0 + m0) ** 2
    denom0 = b0 * (tau_sq * (u - 1.0) + 1.0) / u + 1.0 + solution_at_zero.upsilon_inter
    c0 = slope / denom0
    return float(c0.mean())


def approx_bds_chi(solution_at_zero: AsymptoticSolution, chi: float) -> AsymptoticSolution:
    """Hyperbolic chi-decay law: gamma(chi) = gamma(0) / (1 + c0 chi)."""
    c0 = bds_c0(solution_at_zero)
    gamma = solution_at_zero.gamma / (1.0 + c0 * chi)
    return replace(solution_at_zero, gamma=gamma,
                   sum_rate=_sum_rate(gamma, solution_at_zero.n_bar))
