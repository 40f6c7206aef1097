"""Reaction terms and variational diagnostics.

Provides the reaction-term library (superlinear power-type nonlinearities with
their primitives and structural constants), the p-energy and its Nehari
functional, the scalar Nehari scaling, a dictionary-based upper bound for the
mountain-pass level, and potential-well classification of states.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp1f1

from .mesh import Field, Mesh


class ModelError(ValueError):
    pass


def _odd_power(u, e):
    """sign(u) |u|^e, finite at u = 0 for any e > 0."""
    return np.sign(u) * np.abs(u) ** e


class NehariScaleError(RuntimeError):
    """No superlinear crossing found: the direction is incompatible with the
    structural assumptions on the reaction."""


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------

class Nonlinearity:
    """Reaction term f with primitive F (F(0) = 0) and structural constants.

    Attributes
    ----------
    theta : float
        Superlinearity constant: theta * F(t) <= f(t) t away from 0.
    p0 : float
        Declared vanishing-rate exponent in (1, 2): f(t) = o(|t|^(p0-1)).
    """

    theta: float = math.inf
    q: float = math.inf

    def __init__(self, p0: float = 1.5):
        if not 1.0 < p0 < 2.0:
            raise ModelError(f"p0 must lie in (1, 2), got {p0}")
        self.p0 = p0

    def f(self, u):
        raise NotImplementedError

    def F(self, u):
        raise NotImplementedError

    def __call__(self, u):
        """Return (f(u), F(u))."""
        return self.f(u), self.F(u)


class Zero(Nonlinearity):
    """No reaction: the pure diffusion flow."""

    def f(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def F(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))


class Power(Nonlinearity):
    """f(u) = |u|^(q-2) u, F(u) = |u|^q / q, with theta = q."""

    def __init__(self, q: float, p0: float = 1.5):
        super().__init__(p0)
        if not 1 < q < math.inf:
            raise ModelError(f"power exponent q must be finite and exceed 1, "
                             f"got {q}")
        self.q = float(q)
        self.theta = float(q)

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return _odd_power(u, self.q - 1.0)

    def F(self, u):
        u = np.asarray(u, dtype=float)
        return np.abs(u) ** self.q / self.q


class SumPowers(Nonlinearity):
    """f(u) = |u|^(q-2) u + |u|^(s-2) u; theta = min(q, s) (the small-|t|
    regime binds the superlinearity constant)."""

    def __init__(self, q: float, s: float, p0: float = 1.5):
        super().__init__(p0)
        if not (1 < q < math.inf and 1 < s < math.inf):
            raise ModelError(f"exponents must be finite and exceed 1, got "
                             f"q={q}, s={s}")
        self.q = float(q)
        self.s = float(s)
        self.theta = float(min(q, s))

    def f(self, u):
        u = np.asarray(u, dtype=float)
        return _odd_power(u, self.q - 1.0) + _odd_power(u, self.s - 1.0)

    def F(self, u):
        u = np.asarray(u, dtype=float)
        au = np.abs(u)
        return au ** self.q / self.q + au ** self.s / self.s


class ExpPower(Nonlinearity):
    """f(u) = |u|^(q-2) u exp(alpha u^2); theta = q.

    F(u) = |u|^q / q * 1F1(q/2; q/2 + 1; alpha u^2), the closed form of the
    series  sum_k alpha^k |u|^(q+2k) / (k! (q+2k)); for q = 2 it is
    (exp(alpha u^2) - 1) / (2 alpha). Both return +-inf without a warning
    where they overflow. 1F1 is evaluated at min(alpha u^2, 1e3): it is
    already inf past about 716, and for huge arguments it takes seconds or
    does not return.
    """

    def __init__(self, q: float, alpha: float, p0: float = 1.5):
        super().__init__(p0)
        if not 1 < q < math.inf:
            raise ModelError(f"power exponent q must be finite and exceed 1, "
                             f"got {q}")
        if not 0 < alpha < math.inf:
            raise ModelError(f"alpha must be positive and finite, got {alpha}")
        self.q = float(q)
        self.alpha = float(alpha)
        self.theta = float(q)

    def f(self, u):
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            return _odd_power(u, self.q - 1.0) * np.exp(self.alpha * u ** 2)

    def F(self, u):
        u = np.asarray(u, dtype=float)
        a = 0.5 * self.q
        with np.errstate(over="ignore"):
            z = np.minimum(self.alpha * u ** 2, 1e3)
            return np.abs(u) ** self.q / self.q * hyp1f1(a, a + 1.0, z)


_KINDS = {"zero": Zero, "power": Power, "sum_powers": SumPowers,
          "exp_power": ExpPower}


def make_nonlinearity(kind: str, **params) -> Nonlinearity:
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise ModelError(f"unknown reaction kind {kind!r}; "
                         f"known: {sorted(_KINDS)}") from None
    return cls(**params)


# ---------------------------------------------------------------------------
# Energy and Nehari functional
# ---------------------------------------------------------------------------

def _check_p(p: float):
    if not p > 1:
        raise ModelError(f"p must exceed 1, got {p}")


def diffusivity(g: np.ndarray, p: float, eps: float) -> np.ndarray:
    """The regularized p-Laplacian coefficient (|g|^2 + eps^2)^((p-2)/2) per
    element of the gradient ``g``. With eps = 0 a flat element would make it
    0^((p-2)/2); the cap 1e-300 keeps it finite, and coefficient times g is
    then 0 there."""
    mag2 = (g ** 2).sum(axis=1) + eps ** 2
    return np.maximum(mag2, 1e-300) ** ((p - 2.0) / 2.0)


def grad_p_norm(field: Field, p: float) -> float:
    """Integral of |grad u|^p over the domain."""
    return field.mesh.integrate(field.grad_mag ** p)


def total_variation(field: Field) -> float:
    """Integral of |grad u| (discrete total variation of the interior part)."""
    return grad_p_norm(field, 1.0)


def energy(field: Field, p: float, nl: Nonlinearity) -> float:
    """E_p(u) = (1/p) int |grad u|^p - int F(u)."""
    _check_p(p)
    m = field.mesh
    return grad_p_norm(field, p) / p - m.integrate(nl.F(field.values))


def regularized_energy(field: Field, p: float, eps: float,
                       snap: EnergySnapshot) -> float:
    """E_p,eps(u) = (1/p) int (|grad u|^2 + eps^2)^(p/2) - int F(u), the
    energy that a lagged-diffusivity step dissipates.

    Computed as E_p(u) + (1/p)(int (|grad u|^2 + eps^2)^(p/2) -
    int |grad u|^p) from ``snap``, the snapshot of ``field``, so that F is
    not evaluated a second time.
    """
    _check_p(p)
    lifted = field.mesh.integrate((field.grad_mag ** 2 + eps ** 2) ** (p / 2.0))
    return snap.E_p + (lifted - snap.grad_p) / p


def nehari_I(field: Field, p: float, nl: Nonlinearity) -> float:
    """I_p(u) = int |grad u|^p - int f(u) u  (the derivative of E_p along u)."""
    _check_p(p)
    m = field.mesh
    return grad_p_norm(field, p) - m.integrate(nl.f(field.values) * field.values)


def energy_derivative(field: Field, direction: Field, p: float,
                      nl: Nonlinearity, eps: float = 0.0) -> float:
    """Directional derivative of E_p at ``field`` along ``direction``:
    int |grad u|^(p-2) grad u . grad v - int f(u) v."""
    _check_p(p)
    m = field.mesh
    gu = field.grad
    diff = m.integrate(diffusivity(gu, p, eps)
                       * (gu * direction.grad).sum(axis=1))
    return diff - m.integrate(nl.f(field.values) * direction.values)


# ---------------------------------------------------------------------------
# Nehari scaling and well depth
# ---------------------------------------------------------------------------

def nehari_scale(direction: Field, p: float, nl: Nonlinearity,
                 method: str = "auto") -> float:
    """Positive scale t with I_p(t * direction) = 0.

    ``method`` is "auto" (closed form for pure power reactions, otherwise
    bracketed root-finding) or "root" (always iterate). Raises
    NehariScaleError when no sign change exists in [1e-8, 1e8].
    """
    _check_p(p)
    m = direction.mesh
    A = grad_p_norm(direction, p)
    if A <= 0:
        raise NehariScaleError("direction has zero gradient")
    if not nl.theta > p:
        raise NehariScaleError(
            f"superlinear crossing needs theta > p (theta={nl.theta}, p={p})")

    phi = direction.values
    if method == "auto" and type(nl) is Power:
        B = m.integrate(np.abs(phi) ** nl.q)
        return (A / B) ** (1.0 / (nl.q - p))

    def g(t):
        # I_p(t phi) / t^p, a strictly decreasing crossing by (f1)-(f2); an
        # overflow gives -inf, the exact limit the bracket relies on
        with np.errstate(over="ignore"):
            return A - m.integrate(nl.f(t * phi) * phi) / t ** (p - 1.0)

    lo, hi = 1e-8, 1e8
    if g(lo) <= 0 or g(hi) >= 0:
        # scan a log grid for any sign change before giving up
        ts = np.logspace(-8, 8, 257)
        vals = np.array([g(t) for t in ts])
        idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        if len(idx) == 0:
            raise NehariScaleError("no sign change of I_p(t phi) in [1e-8, 1e8]")
        lo, hi = ts[idx[0]], ts[idx[0] + 1]
    return brentq(g, lo, hi, rtol=1e-14, xtol=1e-300, maxiter=200)


def estimate_dp(mesh: Mesh, p: float, nl: Nonlinearity,
                dictionary: list[Field]) -> float:
    """Upper bound for the mountain-pass level: min over the dictionary of
    E_p at the Nehari-scaled direction. Only an upper bound is claimed."""
    _check_p(p)
    if not dictionary:
        raise ModelError("empty dictionary")
    best = math.inf
    for phi in dictionary:
        t = nehari_scale(phi, p, nl)
        val = energy(Field(mesh, t * phi.values), p, nl)
        if val < best:
            best = val
    return best


def default_dictionary(mesh: Mesh, count: int = 8) -> list[Field]:
    """Bump profiles (tent functions at varying centers and widths) spanning
    the domain, Dirichlet-constrained."""
    fields = []
    coords = mesh.nodes
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = hi - lo
    n_centers = max(1, (count + 1) // 2)
    centers = [lo + span * (j + 1) / (n_centers + 1) for j in range(n_centers)]
    widths = [0.5, 0.25]
    for w in widths:
        for c in centers:
            if len(fields) >= count:
                break
            half = 0.5 * w * span
            prof = np.ones(mesh.n_nodes)
            for k in range(coords.shape[1]):
                prof = prof * np.maximum(
                    0.0, 1.0 - np.abs(coords[:, k] - c[k]) / half[k])
            f = Field(mesh, prof).constrained()
            if f.sup() > 0:
                fields.append(f)
    return fields


# ---------------------------------------------------------------------------
# Potential-well classification
# ---------------------------------------------------------------------------

class WellStatus(enum.Enum):
    INSIDE = "Inside"
    ON_NEHARI = "OnNehari"
    OUTSIDE = "Outside"


@dataclass
class WellReport:
    d_hat: float
    status: WellStatus
    margin_E: float   # d_hat - E_p(u)
    margin_I: float   # I_p(u)


def well_status(field: Field, p: float, nl: Nonlinearity,
                d_hat: float) -> WellReport:
    """Evaluate ``field`` and classify it with ``classify_well``."""
    _check_p(p)
    return classify_well(grad_p_norm(field, p), energy(field, p, nl),
                         nehari_I(field, p, nl), field.sup(), d_hat)


def classify_well(grad_p: float, E_p: float, I_p: float, sup: float,
                  d_hat: float) -> WellReport:
    """Classify a state, given its int |grad u|^p, E_p, I_p and sup norm:
    Inside means E_p < d_hat and I_p > 0 (or u = 0).

    Discrete strict inequalities use scale-aware slack: I_p > 0 means
    I_p > 1e-10 int |grad u|^p, E_p < d_hat means the margin exceeds
    1e-10 (1 + |d_hat|). States with |I_p| at most 1e-9 int |grad u|^p are
    OnNehari. I_p is compared with int |grad u|^p alone, not with 1 plus
    it: near u = 0, I_p is about int |grad u|^p, and an absolute slack
    would put every small state on the Nehari manifold.
    """
    margin_E = d_hat - E_p
    if sup == 0.0:
        return WellReport(d_hat, WellStatus.INSIDE, margin_E, I_p)
    if abs(I_p) <= 1e-9 * grad_p:
        return WellReport(d_hat, WellStatus.ON_NEHARI, margin_E, I_p)
    if I_p > 1e-10 * grad_p and margin_E > 1e-10 * (1.0 + abs(d_hat)):
        return WellReport(d_hat, WellStatus.INSIDE, margin_E, I_p)
    return WellReport(d_hat, WellStatus.OUTSIDE, margin_E, I_p)


# ---------------------------------------------------------------------------
# Structural condition checks
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    vanishing_ratio: float       # max |f(t)| / |t|^(p0-1) on smallest decade
    superlinearity_slack: float  # min of f(t) t - theta F(t) over the grid
    superlinearity_ok: bool
    growth_exponent: float       # fitted slope of log |f| vs log |t|, large t
    growth_constant: float       # smallest C with |f(t)| <= C (1 + |t|^(q-1))


def check_f_conditions(nl: Nonlinearity, p0: float,
                       sample_grid: np.ndarray | None = None) -> ConditionReport:
    """Numerical audit of the structural hypotheses on the reaction.

    Violations are reported, not raised: the degenerate Zero reaction fails
    the strict superlinearity inequality by construction.
    """
    if sample_grid is None:
        sample_grid = np.logspace(-8, 1, 400)
    t = np.concatenate([-sample_grid[::-1], sample_grid])
    ft, Ft = nl(t)

    small = sample_grid[sample_grid <= 10 * sample_grid.min()]
    tsmall = np.concatenate([-small, small])
    ratio = float(np.max(np.abs(nl.f(tsmall)) / np.abs(tsmall) ** (p0 - 1.0)))

    theta = nl.theta if math.isfinite(nl.theta) else 1.0
    slack = ft * t - theta * Ft
    min_slack = float(slack.min())
    # strict positivity of theta F is part of the hypothesis
    ok = bool(min_slack >= -1e-12 * np.max(np.abs(ft * t) + 1e-300)
              and np.all(Ft[np.abs(t) > 0] > 0))

    big = sample_grid[sample_grid >= 1.0]
    fb = np.abs(nl.f(big))
    if np.all(fb > 0):
        slope, _ = np.polyfit(np.log(big), np.log(fb), 1)
    else:
        slope = -math.inf
    q = nl.q if math.isfinite(nl.q) else 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        C = float(np.max(np.abs(ft) / (1.0 + np.abs(t) ** (q - 1.0))))
    return ConditionReport(ratio, min_slack, ok, float(slope), C)


# ---------------------------------------------------------------------------
# Snapshot record
# ---------------------------------------------------------------------------

@dataclass
class EnergySnapshot:
    """Per-time record of the variational diagnostics along a trajectory."""

    time: float
    E_p: float
    I_p: float
    tv: float
    l2: float
    sup: float
    dissipation_cum: float
    grad_p: float   # int |grad u|^p


def snapshot(field: Field, t: float, p: float, nl: Nonlinearity,
             dissipation_cum: float) -> EnergySnapshot:
    return EnergySnapshot(
        time=t,
        E_p=energy(field, p, nl),
        I_p=nehari_I(field, p, nl),
        tv=total_variation(field),
        l2=field.l2(),
        sup=field.sup(),
        dissipation_cum=dissipation_cum,
        grad_p=grad_p_norm(field, p),
    )
