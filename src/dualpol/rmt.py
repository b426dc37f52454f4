"""Deterministic equivalents of the dual-structured precoding SINRs.

Large-system limits are computed from the resolvent fixed point: each user
class contributes a scalar e_i solving a self-consistent trace equation, and
every SINR ingredient (signal strength m, power normalization Psi, intra and
inter interference Upsilon) follows from the fixed point and closed linear
systems for the resolvent derivatives. No numerical differentiation is used
anywhere.

``asym_sweep`` evaluates a whole sweep on one geometry in one call, the
counterpart of ``metrics.run_paired``: it takes the same ``SweepPoint``s,
gives each scheme its CSIT quality by the same rule
(``modeswitch.csit_tau_sq``) and rejects the chi, tau^2 and power that the
Monte Carlo rejects. The points share the BD preprocessors, each group's
eigenbasis and the inter-group couplings (``_Basis``). Each (scheme,
power) is one solve over its distinct chi, returning one solution per chi:
one fixed-point loop over a batch of members, then one stacked solve of
all their derivative systems. BD's members are every group at every
distinct chi; BDS's classes do not depend on chi, so its members are the
groups and chi only scales the cross and inter-group terms, by the slope
``AsymptoticSolution.chi_slope``. A member's result does not depend on the
batch it is in. The CSIT quality tau^2 enters only the final SINR assembly
(``AsymptoticSolution.terms``). ``asym_bd`` and ``asym_bds`` are one-point
sweeps at a scheme's own tau^2.

The fixed point takes Newton steps with the map's analytic Jacobian J
(``_jacobian``), the same J whose (I - J) the derivative systems solve, so
near the fixed point it converges quadratically. It stops at
max(1e-12, 16 eps max|e|): its iterate grows with the power, so at high
SNR an absolute tolerance would ask for more than the float resolution
of e. It gives up after ``FIXED_POINT_MAX_ITER`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, NonConvergenceError, NumericalError
from .modeswitch import csit_tau_sq
from .precode import build_preprocessors
from .scenario import GroupScenario, SweepPoint

__all__ = [
    "FixedPointProblem",
    "FixedPointResult",
    "AsymptoticSolution",
    "solve_fixed_point",
    "asym_sweep",
    "asym_bd",
    "asym_bds",
    "approx_bds_chi",
    "bds_c0",
]

FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 2000
_FLOAT_FLOOR = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class FixedPointProblem:
    """Resolvent fixed point data: user-class covariances with multiplicities,
    a Hermitian shift S, the (negative) argument z, and the trace normalizer M.

    Classes and S are either all matrices or all 1-D: the eigenvalues of
    matrices that share one eigenbasis. Multiplicities are nonnegative
    reals; a fractional one weighs a class in a mixture."""

    covariances: tuple
    multiplicities: tuple
    S: np.ndarray | None
    z: float
    M: int

    def __post_init__(self):
        if self.z >= 0.0:
            raise InvalidInputError("z must be negative")
        if self.M < 1:
            raise InvalidInputError("M must be at least 1")
        if len(self.covariances) != len(self.multiplicities):
            raise InvalidInputError("one multiplicity per covariance class")
        object.__setattr__(self, "covariances", tuple(np.asarray(R) for R in self.covariances))
        object.__setattr__(self, "multiplicities", tuple(float(n) for n in self.multiplicities))
        if any(n < 0.0 for n in self.multiplicities):
            raise InvalidInputError("multiplicities must be nonnegative")
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


def solve_fixed_point(problem: FixedPointProblem) -> FixedPointResult:
    """Solve e_i = (1/M) tr(R_i T(e)) with T(e) = ((1/M) sum_j n_j R_j/(1+e_j) + S - zI)^-1.

    For 1-D (diagonal) classes T is the vector of its eigenvalues. The
    iteration is ``_fixed_points`` on a batch of one.
    """
    k = len(problem.covariances)
    if problem.covariances:
        dim = problem.covariances[0].shape[0]
    elif problem.S is not None:
        dim = problem.S.shape[0]
    else:
        dim = problem.M
    if np.ndim(problem.covariances[0] if k else problem.S) == 1:
        base = (problem.S if problem.S is not None else np.zeros(dim)) - problem.z
    else:
        S = problem.S if problem.S is not None else np.zeros((dim, dim))
        base = (S - problem.z * np.eye(dim)).astype(complex)
    if k == 0:
        T = np.reciprocal(base) if base.ndim == 1 else np.linalg.inv(base)
        return FixedPointResult(e=np.zeros(0), T=T, iterations=0, residual=0.0)
    e, T, iterations, residual = _fixed_points(
        np.stack(problem.covariances)[None], problem.multiplicities, base,
        problem.z, problem.M)
    return FixedPointResult(e=e[0], T=T[0], iterations=int(iterations[0]),
                            residual=float(residual[0]))


def _traces(a, b):
    """Row-wise sums over the last axis: out[i, p, q] = sum(a[i, p] * b[i, q]).

    Each member's sums see only its own rows, so its bits do not depend on
    the batch it is in, which a BLAS product does not promise."""
    return (a[:, :, None, :] * b[:, None, :, :]).sum(axis=-1)


def _jacobian(classes, T, e, n, M):
    """Jacobian of the fixed-point map f(e)_p = (1/M) tr(R_p T(e)) of each
    member: J[p, q] = (n_q / M^2) tr(R_p T R_q T) / (1 + e_q)^2.

    ``classes`` are (members, k, dim) diagonals with T (members, dim), or
    (members, k, dim, dim) matrices with T (members, dim, dim); n holds the
    multiplicities n_q. Every trace is a ``_traces`` row-wise sum.
    """
    if classes.ndim == 3:
        tr = _traces(classes * T[:, None] ** 2, classes)
    else:
        RT = classes @ T[:, None]
        flat = RT.shape[:2] + (-1,)
        tr = _traces(RT.reshape(flat), np.swapaxes(RT, -1, -2).reshape(flat)).real
    return (n / M) * tr / (M * (1.0 + e[:, None]) ** 2)


def _fixed_points(classes, multiplicities, base, z, M):
    """The fixed points of a batch of members that share the multiplicities,
    the shift ``base`` = S - zI and the trace normalizer M.

    ``classes`` is (members, k, dim) class diagonals or (members, k, dim,
    dim) class matrices. Each member starts from e = 1/alpha and takes
    Newton steps e_new = e + (I - J)^-1 (f(e) - e) on the map f(e) = (1/M)
    tr(R_i T(e)), with J its ``_jacobian`` at e; where the Newton iterate
    would leave the positive orthant (or I - J is singular) it takes the
    plain step e_new = f(e). A member stops when its residual max|f(e) - e|
    falls below max(FIXED_POINT_TOL, 16 eps max|f(e)|): the float floor
    takes over where eps |e| exceeds the tolerance, at high SNR. A stopped
    member is frozen at (e_new, T(e_new)), so the Newton step taken where
    the residual met the tolerance leaves an error far below it. Every trace is a row-wise sum
    and every solve is per member, so a member's result does not depend on
    the batch it is in.

    Returns e (members, k), T (members, dim) or (members, dim, dim), and
    the iteration counts and final residuals (members,).
    """
    members, k = classes.shape[:2]
    diagonal = classes.ndim == 3
    expand = (slice(None),) + (None,) * (classes.ndim - 2)
    n = np.asarray(multiplicities, dtype=float)

    def resolvent(d, ev):
        acc = np.broadcast_to(base, (len(d),) + base.shape).copy()
        scale = n / (M * (1.0 + ev))
        for j in range(k):
            acc += scale[:, j][expand] * d[:, j]
        return np.reciprocal(acc) if diagonal else np.linalg.inv(acc)

    def traces(d, T):
        if diagonal:
            return (d * T[:, None]).sum(axis=-1)
        return (d * np.swapaxes(T, -1, -2)[:, None]).sum(axis=(-2, -1)).real

    e_out = np.empty((members, k))
    T_out = np.empty((members,) + base.shape, base.dtype)
    iterations = np.zeros(members, dtype=int)
    residual = np.zeros(members)
    live = np.arange(members)
    e = np.full((members, k), 1.0 / -z)
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        T = resolvent(classes, e)
        fe = traces(classes, T) / M
        res = np.abs(fe - e).max(axis=1)
        try:
            newton = e + np.linalg.solve(np.eye(k) - _jacobian(classes, T, e, n, M),
                                         (fe - e)[..., None])[..., 0]
        except np.linalg.LinAlgError:
            newton = np.full_like(e, np.nan)
        e_new = np.where(np.all(newton > 0.0, axis=1)[:, None], newton, fe)
        done = res < np.maximum(FIXED_POINT_TOL, _FLOAT_FLOOR * np.abs(fe).max(axis=1))
        if done.any():
            at = live[done]
            e_out[at] = e_new[done]
            T_out[at] = resolvent(classes[done], e_new[done])
            iterations[at] = it
            residual[at] = res[done]
            keep = ~done
            if not keep.any():
                return e_out, T_out, iterations, residual
            live, classes, e_new, res = (x[keep] for x in (live, classes, e_new, res))
        e = e_new
    raise NonConvergenceError(
        f"fixed point not converged after {FIXED_POINT_MAX_ITER} iterations",
        residual=float(res.max()))


@dataclass(frozen=True)
class AsymptoticSolution:
    """Converged deterministic-equivalent quantities of one scheme at CSIT
    quality ``tau_sq``; its SINR terms, gamma and sum rate follow from them.

    Arrays are indexed (group, polarization) with polarization order (v, h).
    ``upsilon_intra`` is the raw intra-(sub)group term (to be weighted by the
    own xi^2); ``upsilon_cross`` and ``upsilon_inter`` are already weighted by
    the interfering precoders' xi^2. Nothing else depends on tau^2, so
    ``replace(sol, tau_sq=t)`` is the solution at t. For BDS, cross + inter
    is affine in chi with slope ``chi_slope``; BD's is ``None``.
    """

    scheme: str
    tau_sq: float
    power: float
    n_bar: int
    m0: np.ndarray
    m_prime: np.ndarray
    xi_sq: np.ndarray
    psi: np.ndarray
    upsilon_intra: np.ndarray
    upsilon_cross: np.ndarray
    upsilon_inter: np.ndarray
    iterations: int
    residual: float
    chi_slope: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_streams(self) -> int:
        """Streams over the cell, G n_bar."""
        return self.m0.shape[0] * self.n_bar

    @property
    def terms(self) -> tuple:
        """The SINR's signal, intra-(sub)group, cross-polarized and
        inter-group powers at ``tau_sq``, each (G, 2), with noise power 1 as
        in ``metrics.SinrReport``; divided through by (1 + m0)^2."""
        tau_sq = self.tau_sq
        u = (1.0 + self.m0) ** 2
        signal = (self.power / self.n_streams) * self.xi_sq * (1.0 - tau_sq) * self.m0 ** 2 / u
        intra = self.xi_sq * self.upsilon_intra * (1.0 - tau_sq * (1.0 - u)) / u
        return signal, intra, self.upsilon_cross, self.upsilon_inter

    @property
    def gamma(self) -> np.ndarray:
        signal, intra, cross, inter = self.terms
        return signal / (intra + cross + inter + 1.0)

    @property
    def sum_rate(self) -> float:
        return float((self.n_bar / 2.0) * np.log2(1.0 + self.gamma).sum())

    def mean_gamma(self) -> float:
        return float(self.gamma.mean())


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
    covariance C_g = B_g^H R_g B_g = V_g diag(lam_g) V_g^H, with ``lam``
    (G, B_bar/2), and the inter-group couplings. ``coupling[l]`` (G - 1,
    B_bar/2) holds, for each other group g in ascending order, the diagonal
    of D_gl = B_l^H R_g B_l in group l's eigenbasis. Covariances are
    gain-scaled; B_g is the per-polarization block of the scenario's BD
    ``preprocessors``.
    """

    def __init__(self, scenario: GroupScenario, preprocessors):
        if not scenario.dual_pol:
            raise InvalidInputError(
                "the deterministic equivalents need a dual-polarized array")
        G = scenario.G
        R = [cov.matrix * gain ** 2
             for cov, gain in zip(scenario.covariances, scenario.gains)]
        B = [pre.B_s for pre in preprocessors]
        eig = [_eigh(B[g].conj().T @ R[g] @ B[g]) for g in range(G)]
        self.lam = np.stack([lam for lam, _ in eig])
        self.coupling = np.array([
            [np.sum(V.conj() * ((B[l].conj().T @ R[g] @ B[l]) @ V), axis=0).real
             for g in range(G) if g != l]
            for l, (_, V) in enumerate(eig)]).reshape(G, G - 1, self.lam.shape[1])


class _Spectral:
    """Fixed points and derivative systems of a batch of members that share
    one multiplicity, dimension and argument z: in ``asym_sweep``, every
    group of one scheme at one power (and, for BD, at every chi).

    A member's user classes commute with its group's C_g, so they are
    diagonals d (k, dim) in that eigenbasis and its resolvent T a vector t.
    Each trace tr(R_q T X T) then is sum(w[q] * x) with w = d t^2 and
    x = diag(V_g^H X V_g).
    """

    def __init__(self, d, n: int, dim: int, z: float):
        k = d.shape[1]
        self.dim = dim
        self.m0, T, self.iterations, self.residual = _fixed_points(
            d, (n,) * k, np.zeros(dim) - z, z, dim)
        self.w = d * T[:, None] ** 2
        self.jac = np.eye(k) - _jacobian(d, T, self.m0, n, dim)

    def derivatives(self, x) -> np.ndarray:
        """Derivative traces m' (members, r, k) of every member against its
        r diagonal perturbations x (members, r, dim), from one stacked
        solve of (I - J) m' = [tr(R_q T X T) / dim]_q."""
        rhs = _traces(self.w, x) / self.dim
        try:
            return np.swapaxes(np.linalg.solve(self.jac, rhs), 1, 2)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular (I - J) derivative system") from exc


def asym_sweep(scenario: GroupScenario, modes, points, preprocessors=None) -> list:
    """Deterministic equivalents of the schemes ``modes`` (BD, BDS, each
    once) over a sweep on one geometry; one dict of ``AsymptoticSolution``
    per mode for each point, as ``metrics.run_paired`` returns its
    summaries.

    ``points`` is a sequence of ``SweepPoint``, resolved and checked as the
    Monte Carlo's are (``SweepPoint.on``); a point with theta_max > 0 or a
    drawn chi or tau^2 range, which the deterministic equivalents do not
    model, is rejected. Each
    scheme's tau^2 is ``modeswitch.csit_tau_sq`` of the point's, as in the
    Monte Carlo: BD's clamped to 1, BDS at its equal-feedback square, or
    each at its RVQ bound for ``n_bits``. A point's solution is, bit for
    bit, that of its one-point call (``asym_bd``/``asym_bds`` on the
    scenario at the point's power and chi, at that tau^2). The points share
    one ``_Basis``. Each distinct (scheme, power) is one solve over its
    distinct chi (``_bd``/``_bds``): one batched fixed point with one
    stacked derivative solve. tau^2 enters only the SINR assembly
    (``AsymptoticSolution.terms``).
    ``preprocessors``, the scenario's ``build_preprocessors``, saves a
    caller that holds them the rebuild.
    """
    modes = list(modes)
    unknown = [m for m in modes if m not in _SOLVERS]
    if unknown:
        raise InvalidInputError(f"unknown schemes: {', '.join(unknown)}")
    if len(set(modes)) < len(modes):
        raise InvalidInputError(f"a scheme is listed twice: {', '.join(modes)}")
    points = [p.on(scenario) for p in points]
    if any(p.draws != (0.0, None, None) for p in points):
        raise InvalidInputError("the DEs need theta_max = 0 and a fixed chi and tau_sq")
    taus = {key: {m: csit_tau_sq(*key, scenario.r, m) for m in modes}
            for key in dict.fromkeys((p.tau_sq, p.n_bits) for p in points)}
    scenarios = {power: scenario.with_power(power)
                 for power in dict.fromkeys(p.power for p in points)}
    if preprocessors is None:
        preprocessors = build_preprocessors(scenario)
    basis = _Basis(scenario, preprocessors)
    solved = {}
    for power, sc in scenarios.items():
        chis = list(dict.fromkeys(p.chi for p in points if p.power == power))
        for m in modes:
            solved[m, power] = dict(zip(chis, _SOLVERS[m](basis, sc, chis)))
    return [{m: replace(solved[m, p.power][p.chi], tau_sq=taus[p.tau_sq, p.n_bits][m])
             for m in modes} for p in points]


def asym_bd(scenario: GroupScenario, tau_sq: float = 0.0) -> AsymptoticSolution:
    """Full deterministic equivalent of the BD scheme (both polarizations)."""
    return _one_point(scenario, "BD", tau_sq)


def asym_bds(scenario: GroupScenario, tau_sq: float = 0.0) -> AsymptoticSolution:
    """Full deterministic equivalent of the BDS scheme."""
    return _one_point(scenario, "BDS", tau_sq)


def _one_point(scenario, scheme, tau_sq):
    """The scheme's ``asym_sweep`` solution at the scenario's power and chi,
    at its own CSIT quality ``tau_sq`` (not BD's), which is checked and
    clamped to 1 as BD's is."""
    [solutions] = asym_sweep(scenario, [scheme], [SweepPoint()])
    return replace(solutions[scheme], tau_sq=csit_tau_sq(tau_sq, None, scenario.r, "BD"))


def _pol(x, chi):
    """The classes of polarizations v and h, diag(x, chi x) and its mirror
    diag(chi x, x), at every chi: x (..., h) gives (len(chi), ..., 2, 2h)."""
    cx = np.multiply.outer(chi, x)
    x = np.broadcast_to(x, cx.shape)
    return np.stack([np.concatenate([x, cx], axis=-1),
                     np.concatenate([cx, x], axis=-1)], axis=-2)


def _bd(basis: _Basis, sc: GroupScenario, chis) -> list:
    """BD at tau^2 = 0 and the power P of ``sc``, the basis's scenario at
    that power, one solution per chi of ``chis``.

    In the eigenbasis of C_g the class of polarization v, blockdiag(C_g,
    chi C_g), is diag(lam, chi lam), and that of h its mirror. Every group
    at every chi is one member (chi, group) of one ``_Spectral`` batch.
    """
    G, n_bar, b_bar, N = sc.G, sc.n_bar, sc.b_bar, sc.n_users
    P, alpha = sc.power, sc.alpha
    chis = np.asarray(chis, dtype=float)
    C = len(chis)
    classes = _pol(basis.lam, chis)
    # Member (c, l) is perturbed by the identity, by its own two classes
    # and by each other group's coupling onto l, two classes each.
    x = np.concatenate([np.ones((C, G, 1, b_bar)), classes,
                        _pol(basis.coupling, chis).reshape(C, G, 2 * (G - 1), b_bar)],
                       axis=2)
    sp = _Spectral(classes.reshape(C * G, 2, b_bar), n_bar // 2, b_bar, -alpha)
    mp = sp.derivatives(x.reshape(C * G, 2 * G + 1, b_bar)).reshape(C, G, 2 * G + 1, 2)
    m0 = sp.m0.reshape(C, G, 2)
    u = (1.0 + m0) ** 2
    m_prime = mp[:, :, 0]
    psi = (P / (2.0 * b_bar * G)) * np.sum(m_prime / u, axis=-1)
    xi_sq_g = P / (G * psi)

    # own[c, g, p, q]: class q's derivative against class p; n_bar/2 - 1
    # same-polarization users and n_bar/2 cross-polarized ones.
    own = mp[:, :, 1:3] / u[:, :, None]
    ups_intra = (P / N) / b_bar * ((n_bar / 2.0 - 1.0) * np.diagonal(own, axis1=2, axis2=3)
                                   + (n_bar / 2.0) * own[:, :, [0, 1], [1, 0]])
    ups_inter = np.zeros((C, G, 2))
    for l in range(G):
        others = [g for g in range(G) if g != l]
        mp_gl = mp[:, l, 3:].reshape(C, G - 1, 2, 2) / u[:, l, None, None]
        ups_inter[:, others] += (xi_sq_g[:, l, None, None] * (P / (2.0 * N))
                                 * (n_bar / b_bar) * mp_gl.sum(axis=-1))

    xi_sq = np.repeat(xi_sq_g[..., None], 2, axis=-1)
    psi = np.repeat(psi[..., None], 2, axis=-1)
    iterations = sp.iterations.reshape(C, G).max(axis=1)
    residual = sp.residual.reshape(C, G).max(axis=1)
    return [AsymptoticSolution(
        scheme="BD", tau_sq=0.0, power=P, n_bar=n_bar,
        m0=m0[c], m_prime=m_prime[c], xi_sq=xi_sq[c], psi=psi[c],
        upsilon_intra=ups_intra[c], upsilon_cross=np.zeros((G, 2)),
        upsilon_inter=ups_inter[c], iterations=int(iterations[c]),
        residual=float(residual[c])) for c in range(C)]


def _bds(basis: _Basis, sc: GroupScenario, chis) -> list:
    """BDS at tau^2 = 0 and the power P of ``sc``, the basis's scenario at
    that power, one solution per chi of ``chis``.

    Each co-polarized subgroup has a scalar fixed point on its (B_bar/2)-dim
    effective system; cross-polarized and inter-group interference enter
    through chi-weighted projected covariances. The subgroup regularizer
    matches the precoder (n_bar / P absolute, i.e. twice alpha per
    dimension), which makes the chi = 0 solution coincide with BD's exactly.
    Both polarizations share every quantity; arrays are (G, 2) throughout.
    Every group is one member of one ``_Spectral`` batch, whatever the chi.
    """
    G, n_bar, b_bar, N = sc.G, sc.n_bar, sc.b_bar, sc.n_users
    P, alpha = sc.power, sc.alpha
    beta = b_bar // 2

    # Member l is perturbed by the identity, by its class and by each other
    # group's coupling onto l.
    classes = basis.lam[:, None]
    sp = _Spectral(classes, n_bar // 2, beta, -2.0 * alpha)
    mp = sp.derivatives(np.concatenate(
        [np.ones((G, 1, beta)), classes, basis.coupling], axis=1))[:, :, 0]
    m0 = np.repeat(sp.m0, 2, axis=1)
    u = (1.0 + m0) ** 2
    m_prime = np.repeat(mp[:, :1], 2, axis=1)
    psi = (P / (G * b_bar)) * m_prime / u
    # Deterministic equivalent of the per-subgroup normalization
    # xi^2 = (n_bar/2) / tr(H^H K^H K H), i.e. P / (2 G Psi).
    xi_sq = P / (2.0 * G * psi)

    mp_gg = mp[:, 1:2]
    ups_intra = ((n_bar / 2.0 - 1.0) / beta) * (P / N) * mp_gg / u

    # Interference of subgroup (l, q) onto users of (g, p): the projected
    # covariance is B_lq^H R_gp B_lq = C or D scaled by chi when q != p, so
    # the cross term is chi cross_unit and the inter-group one
    # (1 + chi) inter_unit: their sum has slope cross_unit + inter_unit.
    cross_unit = xi_sq * (P / N) * (n_bar / b_bar) * mp_gg / u
    inter_unit = np.zeros((G, 2))
    for l in range(G):
        others = [g for g in range(G) if g != l]
        inter_unit[others] += xi_sq[l] * (P / N) * (n_bar / b_bar) * mp[l, 2:, None] / u[l]

    chi_slope = cross_unit + inter_unit
    return [AsymptoticSolution(
        scheme="BDS", tau_sq=0.0, power=P, n_bar=n_bar, m0=m0, m_prime=m_prime,
        xi_sq=xi_sq, psi=psi, upsilon_intra=ups_intra, upsilon_cross=chi * cross_unit,
        upsilon_inter=(1.0 + chi) * inter_unit, iterations=int(sp.iterations.max()),
        residual=float(sp.residual.max()), chi_slope=chi_slope) for chi in chis]


_SOLVERS = {"BD": _bd, "BDS": _bds}


def bds_c0(solution_at_zero: AsymptoticSolution) -> float:
    """Interference growth coefficient of the BDS SINR in chi.

    The interference terms are affine in chi, so per subgroup the SINR obeys
    gamma(chi) = gamma(0) / (1 + c chi) exactly with c = ``chi_slope`` /
    (1 + intra + cross + inter) at chi = 0, in the normalization of
    ``terms``; c0 averages c over (g, p). (The compact closed-form
    coefficient replaces the cross-polarized multiplicity n_bar/2 by
    n_bar/2 - 1 and drops inter-group leakage, which overshoots the decay
    for small groups; the slope form is exact.)
    """
    _, intra, cross, inter = solution_at_zero.terms
    c0 = solution_at_zero.chi_slope / (1.0 + intra + cross + inter)
    return float(c0.mean())


def approx_bds_chi(solution_at_zero: AsymptoticSolution, chi: float) -> AsymptoticSolution:
    """Hyperbolic chi-decay law: gamma(chi) = gamma(0) / (1 + c0 chi).

    The law's extra interference, (1 + intra + cross + inter) c0 chi at
    chi = 0, goes into ``upsilon_cross``; gamma and the sum rate follow.
    """
    _, intra, cross, inter = solution_at_zero.terms
    extra = (1.0 + intra + cross + inter) * bds_c0(solution_at_zero) * chi
    return replace(solution_at_zero, upsilon_cross=cross + extra)
