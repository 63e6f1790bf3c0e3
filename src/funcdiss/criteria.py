"""Dissipativity verdicts for the planar Lame operator and relatives.

Three ingredients combine into a verdict:

  necessity   If the operator is dissipative for the weight phi then
              Lambda_inf^2 <= 1 - ess sup ((lambda+mu)/(lambda+3mu))^2,
              so a limit ratio above that right hand side refutes
              dissipativity.

  sufficiency The strict inequality, together with smallness of the BMO
              seminorm of mu^2/(lambda+3mu) against a margin kappa chosen
              from the spectral gap, certifies strict dissipativity.
              Sufficiency only needs a closed-form bound on sup_t Lambda^2,
              so weights whose ratio is not monotone are still covered.

  algebra     The pointwise necessary condition in the plane: for all unit
              xi in R^2 and eta, omega in C^m,

                Re( <Q eta, eta> - L^2 <Q omega, omega> Re<eta, omega>^2
                    + L (<Q omega, eta> - <Q eta, omega>) Re<eta, omega> ) >= 0

              with Q = sum A^{hk} xi_h xi_k and L = Lambda_inf.  For fixed
              xi and omega this is a quadratic form in eta over R^{2m}, so
              the inner minimum is an exact eigenvalue computation and only
              the (xi, omega) sphere needs searching, by zooming lattices.

The kappa policy follows the spectral gap: delta is half the gap
rhs - Lambda_inf^2 and kappa sits at 90 percent of
delta / (2 (1 - Lambda_inf^2)) * min(ess inf mu, ess inf (lambda + 2 mu)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientField, GeneralSystem, ess_bounds
from .errors import BudgetExhausted, EllipticityViolation, NotStrict
from .phi import LambdaLimit, PhiSpec

__all__ = [
    "STRICT_DISSIPATIVE",
    "DISSIPATIVE_BOUNDARY",
    "NOT_DISSIPATIVE",
    "INCONCLUSIVE",
    "Verdict",
    "AlgebraicProbe",
    "MarginResult",
    "algebraic_margin",
    "algebraic_form",
    "lame2d_verdict",
    "lameNd_sufficient",
    "perturbation_budget",
    "comparison_constant",
    "kappa_policy",
    "constant_threshold",
    "poisson_threshold",
]

# algebraic_margin: lattice points per search angle, and the relative
# change, against the coefficient scale, that the last zoom may still make.
_PROBE_GRID = 32
_POLISH_TOL = 1e-8
# _lattice_minimum: nodes per zoom lattice axis, stop width, round budget.
_ZOOM_POINTS = 7
_ZOOM_WIDTH = 1e-12
_ZOOM_ROUNDS = 200
# Limit ratios within 1e-10 of a bound, relative, sit on it.
_BOUNDARY_TOL = 1e-10

STRICT_DISSIPATIVE = "StrictDissipative"
DISSIPATIVE_BOUNDARY = "DissipativeBoundary"
NOT_DISSIPATIVE = "NotDissipative"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: str
    lambda_inf_sq: float
    rhs: float
    margin: float
    kappa: float | None = None
    bmo_value: float | None = None
    bmo_threshold: float | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.status not in (STRICT_DISSIPATIVE, DISSIPATIVE_BOUNDARY,
                               NOT_DISSIPATIVE, INCONCLUSIVE):
            raise ValueError(f"unknown verdict status {self.status!r}")
        # A verdict is a certificate: a NaN field is an error, never a verdict.
        for name in ("lambda_inf_sq", "rhs", "margin", "kappa", "bmo_value",
                     "bmo_threshold"):
            value = getattr(self, name)
            if value is not None and math.isnan(value):
                raise ValueError(f"verdict field {name} is NaN")


@dataclass(frozen=True)
class AlgebraicProbe:
    """A minimizing direction triple (xi, eta, omega), omega normalized."""

    xi: np.ndarray
    eta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        xi = np.asarray(self.xi, dtype=float)
        eta = np.asarray(self.eta, dtype=complex)
        omega = np.asarray(self.omega, dtype=complex)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "omega", omega)
        if abs(np.linalg.norm(omega) - 1.0) > 1e-12:
            raise ValueError("omega must be a unit vector")


@dataclass(frozen=True)
class MarginResult:
    min_value: float
    argmin: AlgebraicProbe


def _real_embedding(Q: np.ndarray):
    """Symmetric matrix of Re(eta^* H eta) in coordinates [Re eta; Im eta]."""
    H = 0.5 * (Q + np.swapaxes(Q.conj(), -1, -2))
    Hr, Hi = H.real, H.imag
    return np.block([[Hr, -Hi], [Hi, Hr]])


def _probe_matrix(Q: np.ndarray, omega: np.ndarray, lam_inf: float):
    """Real symmetric (2m, 2m) matrix whose min eigenvalue is the eta-minimum
    of the algebraic form at each (xi, omega), for omega (..., m) and Q."""
    Qw = np.einsum("...ij,...j->...i", Q, omega)          # Q omega
    QHw = np.einsum("...ji,...j->...i", Q.conj(), omega)  # Q^* omega
    a, b, c = (np.concatenate([v.real, v.imag], axis=-1)
               for v in (omega, Qw, QHw))
    qoo = np.real(np.sum(omega.conj() * Qw, axis=-1))[..., None, None]
    d = lam_inf * (b - c)

    def outer(x, y):
        return x[..., :, None] * y[..., None, :]

    return (_real_embedding(Q) - (lam_inf ** 2) * qoo * outer(a, a)
            + 0.5 * (outer(d, a) + outer(a, d)))


def _lattice_minimum(fn, upper, points: int):
    """Minimize fn, which maps (n, d) points to n values, over [0, upper]:
    a lattice of `points` nodes per axis, then lattices of _ZOOM_POINTS on a
    box of 1.5 of their spacings a side, moved to a better node (so it can
    follow a narrow valley) or halved when the centre holds, until
    _ZOOM_WIDTH wide.  Returns the value, its point, the last improvement."""
    centre = half = 0.5 * np.asarray(upper, dtype=float)
    best = improvement = np.inf
    for r in range(_ZOOM_ROUNDS + 1):
        unit = np.indices((points,) * centre.size).reshape(centre.size, -1).T
        nodes = centre + half * (unit * (2.0 / (points - 1)) - 1.0)
        values = fn(nodes)
        i = int(np.argmin(values))
        improvement = max(best - float(values[i]), 0.0)
        if values[i] < best:
            best, centre = float(values[i]), nodes[i]
        elif 2.0 * np.max(half) <= _ZOOM_WIDTH:
            break
        if r == 0 or not improvement:
            half = half * (3.0 / (points - 1))
        points = _ZOOM_POINTS
    return best, centre, improvement


def algebraic_form(system: GeneralSystem, lam_inf: float, xi, eta, omega) -> float:
    """Direct evaluation of the algebraic form at one probe triple."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=complex)
    omega = np.asarray(omega, dtype=complex)
    Q = system.contract_xi(xi)
    t1 = np.real(eta.conj() @ (Q @ eta))
    reo = float(np.real(eta @ omega.conj()))
    t2 = -(lam_inf ** 2) * float(np.real(omega.conj() @ (Q @ omega))) * reo * reo
    t3 = lam_inf * float(np.real(eta.conj() @ (Q @ omega)
                                 - omega.conj() @ (Q @ eta))) * reo
    return float(t1 + t2 + t3)


def algebraic_margin(system: GeneralSystem, lam_inf: float) -> MarginResult:
    """Minimize the algebraic form over |xi| = |eta| = |omega| = 1.

    _lattice_minimum searches (xi angle, omega polar angle, omega relative
    phase) from a 32 x 32 x 32 lattice, with eta handled exactly by the
    eigenvalue reduction.  Raises BudgetExhausted when its last round still
    moves the value by more than 1e-8 relative to the coefficient scale.
    """
    if system.dim != 2 or system.components != 2:
        raise ValueError("probe search implemented for N = 2, m = 2 systems")
    if not math.isfinite(lam_inf):
        raise ValueError(f"lam_inf must be finite, got {lam_inf}")

    scale = float(np.max(np.abs(system.tensor))) or 1.0

    def probes(nodes):  # xi, omega and the probe matrix at each angle triple
        a, e, f = nodes.T
        xi = np.stack([np.cos(a), np.sin(a)], axis=-1)
        om = np.stack([np.cos(e) + 0j, np.sin(e) * np.exp(1j * f)], axis=-1)
        return xi, om, _probe_matrix(system.contract_xi(xi), om, lam_inf)

    min_val, params, improvement = _lattice_minimum(
        lambda nodes: np.linalg.eigvalsh(probes(nodes)[2])[:, 0],
        [np.pi, np.pi / 2.0, 2.0 * np.pi], _PROBE_GRID)
    if improvement > _POLISH_TOL * scale:
        raise BudgetExhausted(
            f"probe zoom still moving by {improvement:.3g} "
            f"after the refinement budget")

    xi, om, M = (v[0] for v in probes(params[None, :]))
    w, V = np.linalg.eigh(M)
    x = V[:, 0]
    eta = x[:2] + 1j * x[2:]
    eta = eta / np.linalg.norm(eta)
    return MarginResult(min_value=float(min_val),
                        argmin=AlgebraicProbe(xi=xi, eta=eta, omega=om))


# ---------------------------------------------------------------------------
# Verdicts


def kappa_policy(gap: float, lambda_inf_sq: float, mu_min: float,
                 lam_plus_2mu_min: float) -> float:
    """Pick kappa from the gap: delta = gap/2, kappa at 90 percent of
    delta / (2 (1 - Lambda_inf^2)) * min(ess inf mu, ess inf (lambda+2mu))."""
    if gap <= 0.0:
        raise NotStrict("no spectral gap, cannot choose kappa")
    delta = 0.5 * gap
    sup_kappa = delta / (2.0 * (1.0 - lambda_inf_sq)) * min(mu_min,
                                                            lam_plus_2mu_min)
    return 0.9 * sup_kappa


def lame2d_verdict(phi_spec: PhiSpec, coeffs: CoefficientField,
                   c0: float = 1.0, kappa_hint: float | None = None) -> Verdict:
    """Decide functional dissipativity for the planar variable Lame operator.

    The necessity direction compares the limit ratio of the weight's tail,
    phi_spec.profile.limit, against
    rhs = 1 - ess sup ((lambda+mu)/(lambda+3mu))^2; the sufficiency
    direction additionally needs the BMO seminorm of mu^2/(lambda+3mu)
    below kappa (1 - sup Lambda^2) / (2 c0).  Refutation reads the tail's
    certified lower bound limit.lambda_inf_sq_lower, so an unconverged tail
    without one ends Inconclusive.  Only a closed-form sup Lambda^2
    certifies the strict side, and the notes name the basis.

    kappa_hint overrides the automatic margin choice; it must sit strictly
    inside (0, delta/(2(1-L^2)) * min(ess inf mu, ess inf(lambda+2mu))).
    """
    limit = phi_spec.profile.limit
    eb = ess_bounds(coeffs)
    rhs = 1.0 - eb.sup_ratio_sq
    lam2 = limit.lambda_inf_sq
    margin = rhs - lam2
    notes: list[str] = []

    lam2_lower = limit.lambda_inf_sq_lower
    # Upper bound for sup_t Lambda^2, the quantity sufficiency needs.
    lam2_suff = limit.sup_bound

    tol = _BOUNDARY_TOL * max(1.0, abs(rhs))
    if limit.converged and abs(lam2 - rhs) <= tol:
        notes.append("limit ratio sits on the necessary bound")
        return Verdict(DISSIPATIVE_BOUNDARY, lam2, rhs, margin, notes=tuple(notes))

    if lam2_lower > rhs + tol:
        notes.append(
            "necessary bound violated: Lambda_inf^2 exceeds "
            "1 - ess sup ((lambda+mu)/(lambda+3mu))^2")
        if not limit.converged:
            notes.append("refutation used the certified grid lower bound "
                         f"{lam2_lower:.6g} of an unconverged tail")
        return Verdict(NOT_DISSIPATIVE, lam2, rhs, margin, notes=tuple(notes))

    if not limit.converged:
        notes.append("limit ratio tail unconverged; strict side not certified")
        return Verdict(INCONCLUSIVE, lam2, rhs, margin, notes=tuple(notes))

    notes.append(_sup_basis(limit))
    if lam2_suff >= rhs - tol:
        if lam2_suff > lam2 + tol:
            notes.append(
                f"sup Lambda^2 bound {lam2_suff:.6g} blocks the quadratic "
                "form argument although the limit ratio is below the bound")
            return Verdict(INCONCLUSIVE, lam2, rhs, margin, notes=tuple(notes))
        notes.append("limit ratio sits on the necessary bound")
        return Verdict(DISSIPATIVE_BOUNDARY, lam2, rhs, margin, notes=tuple(notes))

    gap = rhs - lam2_suff
    kappa = kappa_policy(gap, lam2_suff, eb.mu_min, eb.lam_plus_2mu_min)
    if kappa_hint is not None:
        cap = kappa / 0.9
        if not 0.0 < kappa_hint < cap:
            raise NotStrict(
                f"kappa_hint {kappa_hint:.6g} outside the admissible "
                f"interval (0, {cap:.6g})")
        kappa = kappa_hint
        notes.append(f"margin kappa taken from caller: {kappa:.6g}")
    bmo_value = coeffs.bmo_value
    bmo_threshold = kappa * (1.0 - lam2_suff) / (2.0 * c0)
    if bmo_value <= bmo_threshold:
        notes.append("strict bound and oscillation smallness both certified")
        return Verdict(STRICT_DISSIPATIVE, lam2, rhs, margin, kappa=kappa,
                       bmo_value=bmo_value, bmo_threshold=bmo_threshold,
                       notes=tuple(notes))
    notes.append(
        f"coefficient oscillation {bmo_value:.6g} above the certified "
        f"smallness level {bmo_threshold:.6g}")
    return Verdict(INCONCLUSIVE, lam2, rhs, margin, kappa=kappa,
                   bmo_value=bmo_value, bmo_threshold=bmo_threshold,
                   notes=tuple(notes))


def _sup_basis(limit: LambdaLimit) -> str:
    if limit.sup_bounded:
        return f"sup Lambda^2 = {limit.sup_lambda_sq:.6g} in closed form"
    return "sup Lambda^2 sampled, not certified; sufficiency uses |Lambda| < 1"


def constant_threshold(lam: float, mu: float) -> float:
    """Sufficient bound for constant coefficients in any dimension:
    mu/(lam+2mu) when lam+mu > 0, (lam+2mu)/mu when lam+mu < 0, 1 at balance.
    A non-finite pair raises EllipticityViolation like a non-elliptic one."""
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise EllipticityViolation(
            f"constant pair not finite: lambda={lam:g}, mu={mu:g}")
    if mu <= 0.0 or lam + 2.0 * mu <= 0.0:
        raise EllipticityViolation(
            f"constant pair not elliptic: mu={mu:g}, lambda+2mu={lam + 2 * mu:g}")
    if lam + mu > 0.0:
        return mu / (lam + 2.0 * mu)
    if lam + mu < 0.0:
        return (lam + 2.0 * mu) / mu
    return 1.0


def poisson_threshold(nu: float) -> float:
    """The same bound through the Poisson ratio nu = lambda/(2(lambda+mu)):
    (1-2nu)/(2(1-nu)) for nu < 1/2 and 2(1-nu)/(1-2nu) for nu > 1."""
    if nu < 0.5:
        return (1.0 - 2.0 * nu) / (2.0 * (1.0 - nu))
    if nu > 1.0:
        return 2.0 * (1.0 - nu) / (1.0 - 2.0 * nu)
    raise ValueError("Poisson ratio must satisfy nu < 1/2 or nu > 1 "
                     "for an elliptic constant pair")


def lameNd_sufficient(phi_spec: PhiSpec, lam: float, mu: float) -> Verdict:
    """Sufficient criterion for the constant coefficient operator in any
    dimension, read off the weight's tail phi_spec.profile.limit.  Returns
    StrictDissipative when sup Lambda^2 is certified below the threshold
    and Inconclusive otherwise (this direction proves nothing beyond it)."""
    limit = phi_spec.profile.limit
    threshold = constant_threshold(lam, mu)
    lam2 = limit.lambda_inf_sq
    margin = threshold - lam2
    basis = _sup_basis(limit)
    tol = _BOUNDARY_TOL * max(1.0, threshold)
    if limit.sup_bound < threshold - tol:
        return Verdict(STRICT_DISSIPATIVE, lam2, threshold, margin,
                       notes=(basis,
                              "constant coefficient sufficient bound met"))
    return Verdict(INCONCLUSIVE, lam2, threshold, margin,
                   notes=(basis, "sufficient bound not met; no conclusion"))


def comparison_constant(phi_spec: PhiSpec, dim: int = 2) -> float:
    """Coefficient-wise bound C on the perturbation form: the terms
    sigma |grad v|^2, eps (div v)^2, sigma sum d_k v_j d_j v_k and the
    Lambda^2 weighted gradient terms give
    C = max(2 + 2 S, dim + S) with S = phi_spec.profile.limit.sup_bound."""
    lam2 = phi_spec.profile.limit.sup_bound
    return max(2.0 + 2.0 * lam2, dim + lam2)


def perturbation_budget(phi_spec: PhiSpec, lam0: float, mu0: float,
                        kappa0: float, *, dim: int = 2) -> float:
    """Sup norm budget for coefficient perturbations that keeps half the
    strict margin.

    For the constant pair (lam0, mu0) strictly dissipative with margin
    kappa0, any perturbation (eps, sigma) with |||eps| + |sigma|||_inf at
    most kappa0/(2C) leaves the operator strictly dissipative with margin
    kappa0/2, with C from the weight's tail phi_spec.profile.limit.  The
    budget is linear in kappa0; a zero margin buys nothing, and a negative
    or non-finite one raises NotStrict.
    """
    if not (math.isfinite(kappa0) and kappa0 >= 0.0):
        raise NotStrict(f"kappa0 must be finite and nonnegative, got {kappa0:.6g}")
    if kappa0 == 0.0:
        return 0.0
    # The base pair must actually be elliptic for the bound to mean anything.
    constant_threshold(lam0, mu0)
    return kappa0 / (2.0 * comparison_constant(phi_spec, dim))
