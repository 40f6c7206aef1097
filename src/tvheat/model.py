"""Reaction terms and variational diagnostics.

Provides the reaction-term library (superlinear power-type nonlinearities with
their primitives and structural constants), the p-energy and its Nehari
functional, the scalar Nehari scaling, a dictionary-based upper bound for the
mountain-pass level, and potential-well classification of states.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .mesh import Field, Mesh, rowdot


class ModelError(ValueError):
    pass


def _odd_power(u, e):
    """sign(u) |u|^e, finite at u = 0 for any e > 0."""
    return np.sign(u) * np.abs(u) ** e


def _nodewise(method):
    """A reaction's f or F on u as a float array. A 0-d u is evaluated as
    a one-node array, because numpy's scalar pow can differ in the last
    bit from its array loop. Each reaction class applies it to its own f
    and F, which stay in the class dictionary for the benchmark's tracer."""
    @functools.wraps(method)
    def evaluate(self, u):
        u = np.asarray(u, dtype=float)
        if u.ndim == 0:
            return method(self, u[None])[0]
        return method(self, u)
    return evaluate


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


class Zero(Nonlinearity):
    """No reaction: the pure diffusion flow."""

    @_nodewise
    def f(self, u):
        return np.zeros(u.shape)

    @_nodewise
    def F(self, u):
        return np.zeros(u.shape)


class Power(Nonlinearity):
    """f(u) = |u|^(q-2) u, F(u) = |u|^q / q, with theta = q."""

    def __init__(self, q: float, p0: float = 1.5):
        super().__init__(p0)
        if not 1 < q < math.inf:
            raise ModelError(f"power exponent q must be finite and exceed 1, "
                             f"got {q}")
        self.q = float(q)
        self.theta = float(q)

    @_nodewise
    def f(self, u):
        return _odd_power(u, self.q - 1.0)

    @_nodewise
    def F(self, u):
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

    @_nodewise
    def f(self, u):
        return _odd_power(u, self.q - 1.0) + _odd_power(u, self.s - 1.0)

    @_nodewise
    def F(self, u):
        au = np.abs(u)
        return au ** self.q / self.q + au ** self.s / self.s


class ExpPower(Nonlinearity):
    """f(u) = |u|^(q-2) u exp(alpha u^2); theta = q.

    F(u) = |u|^q / q * 1F1(q/2; q/2 + 1; z), z = alpha u^2, the closed form
    of the series  sum_k alpha^k |u|^(q+2k) / (k! (q+2k)); for q = 2 it is
    (exp(alpha u^2) - 1) / (2 alpha). Where they overflow, f is +-inf and
    F, which is never negative, +inf, without a warning.

    F is evaluated node by node, by Kummer's series of 1F1 with a = q/2
    (DLMF 13.2.2 with b = a + 1): 1F1 = sum_(k>=0) a / (a + k) z^k / k!.
    Every term is positive, the terms fall with k once k > z, and each sum
    runs in ascending k and stops when the term just added is below 2^-55
    of a partial sum. Each later term of that node is then below a quarter
    of an ulp of its partial sum and cannot change it: each value is the
    one its node gets alone, in a stack, a slice or a scalar.

    - Where z <= ``Z0``, F is |u|^q / q * (1 + r), with
      r = sum_(k>=1) d_k z^k and d_k = a / ((a + k) k!) fixed per
      instance, added to |u|^q / q last. That is within 4 ulp of expm1 for
      q = 2. The sum stops at the first k where d_k z_max^(k-1), for the
      array's largest z, is below 2^-55 d_1, so a decayed state needs only
      a few terms.
    - Where Z0 < z < ``_Z_OVER``, F is |u|^q / q * 1F1, with the running
      term t_k = t_(k-1) z / k weighted by a / (a + k). The sum stops at
      the first k past the largest z of these nodes where that node's
      term is below 2^-55 of its partial sum; at such k a smaller z has a
      smaller term-to-sum ratio. Its terms start at 2^-64, which changes
      no bit and keeps z^k / k! (inf from about z = 714) and the sum
      finite; unscaling the sum by 2^64 makes it inf from the first z at
      which it exceeds the largest float, about 716.
    - From ``_Z_OVER`` on, and at +-inf, 1F1 is inf and so is F; at nan F
      is nan. Neither is summed.
    """

    # where the d_k sum gives way to the running term's: on 801 nodes with
    # z up to 1 the d_k sum takes 17 terms
    Z0 = 1.0

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
        # d_1, d_2, ...: every coefficient whose term can reach
        # _EIGHTH_ULP times the first, d_1 z, at some z <= Z0
        a = 0.5 * self.q
        self._d = []
        inv_fact = z0_k = 1.0
        for k in itertools.count(1):
            inv_fact /= k
            d = a / (a + k) * inv_fact
            if k > 1 and d * z0_k < _EIGHTH_ULP * self._d[0]:
                break
            self._d.append(d)
            z0_k *= self.Z0

    @_nodewise
    def f(self, u):
        with np.errstate(over="ignore"):
            return _odd_power(u, self.q - 1.0) * np.exp(self.alpha * u ** 2)

    @_nodewise
    def F(self, u):
        with np.errstate(over="ignore"):
            z = self.alpha * u ** 2
            lead = np.abs(u) ** self.q / self.q
            z_max = float(z.max(initial=0.0))
            if z_max <= self.Z0:
                F = self._tail(z, z_max)
                F *= lead
                F += lead
                return F
            # nan, +-inf or z above Z0 somewhere
            small = z <= self.Z0
            zb = z[~small]
            # nan stays nan, and from _Z_OVER on 1F1 is inf
            s = np.ones(z.shape)
            s[~small] = np.where(np.isnan(zb), zb, np.inf)
            summed = ~small & (z < _Z_OVER)
            if summed.any():
                s[summed] = self._kummer(z[summed])
            F = lead * s
            if small.any():
                zs = z[small]
                F[small] += lead[small] * self._tail(zs, float(zs.max()))
            return F

    def _tail(self, z: np.ndarray, z_max: float) -> np.ndarray:
        """1F1(q/2; q/2 + 1; z) - 1 for an array of finite z in [0, Z0]
        whose largest is ``z_max``, node by node, as a new array."""
        d_1 = self._d[0]
        r = z * d_1
        zk = z.copy()
        t = np.empty(z.shape)
        z_max_k = 1.0
        for d in self._d[1:]:
            z_max_k *= z_max
            if d * z_max_k < _EIGHTH_ULP * d_1:
                break
            np.multiply(zk, z, out=zk)
            r += np.multiply(zk, d, out=t)
        return r

    def _kummer(self, z: np.ndarray) -> np.ndarray:
        """1F1(q/2; q/2 + 1; z) for a 1-D array of z in (Z0, _Z_OVER),
        node by node, as a new array: inf where the unscaled sum
        overflows, under the caller's ``np.errstate``."""
        a = 0.5 * self.q
        i = int(z.argmax())
        z_max = float(z[i])
        t = np.full(z.shape, _SCALE)
        s = t.copy()
        term = np.empty(z.shape)
        for k in itertools.count(1):
            t *= z
            t /= k
            s += np.multiply(t, a / (a + k), out=term)
            if k > z_max and term[i] < _EIGHTH_ULP * s[i]:
                s *= 1.0 / _SCALE
                return s


# an eighth of an ulp of 1: a term below this fraction of a positive sum is
# below a quarter of an ulp of it, so adding it leaves the sum as it is
_EIGHTH_ULP = 2.0 ** -55

# the first term of ExpPower's sum past Z0. A power of two scales every
# term and sum without rounding, and 2^-64 keeps the terms and their sum
# finite below _Z_OVER
_SCALE = 2.0 ** -64

# 1F1(a; a + 1; z) >= min(a, 1) (e^z - 1) / z and a > 1/2, so every node
# from _Z_OVER on overflows
_Z_OVER = 723.0


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
    """Raise unless p exceeds 1."""
    if not p > 1:
        raise ModelError(f"p must exceed 1, got {p}")


def _power(x: np.ndarray, e: list, out: np.ndarray) -> np.ndarray:
    """x ** e for a stack's (k, n) x and a list of k exponents (``Terms``),
    into ``out``: each row by ``**`` with its own scalar exponent, which
    gives it the bits of the row alone (one exponent array for all rows
    would call pow where ``**`` squares)."""
    for i, ei in enumerate(e):
        out[i] = x[i] ** ei
    return out


class Terms:
    """The constants of the regularized p-terms, computed once for a plain
    field or a stack and shared by every evaluation: p, eps^2 and the
    exponents p and (p - 2)/2 (the coefficient's). They define the
    lagged coefficient and, through it, the lifted energy density.

    For a plain field each is a float. For a stack of k fields, given p
    and eps as (k,) arrays, ``eps_sq`` is the (k, 1) column of each row's
    own Python square and each exponent a list of k floats, to which
    ``_power`` raises each row by ``**``, as for a plain field. Every row
    then gets the bits it gets alone. ``key`` is the pair (coefficient exponent, eps^2) that decides
    a row's coefficient, and for a stack the tuple of its rows' pairs:
    constants of equal keys give a field the same coefficient, which is
    how ``Field.coefficient`` finds the one it keeps.
    """

    __slots__ = ("eps_sq", "p_exp", "coef_exp", "key")

    def __init__(self, p, eps=0.0):
        if isinstance(p, np.ndarray):
            eps_sq = [e ** 2 for e in eps.tolist()]
            self.eps_sq = np.array(eps_sq)[:, None]
            self.p_exp = p.tolist()
            self.coef_exp = ((p - 2.0) / 2.0).tolist()
            self.key = tuple(zip(self.coef_exp, eps_sq))
        else:
            self.p_exp = p
            self.eps_sq = eps ** 2
            self.coef_exp = (p - 2.0) / 2.0
            self.key = (self.coef_exp, self.eps_sq)

    def coefficient(self, grad_sq: np.ndarray) -> np.ndarray:
        """The regularized p-Laplacian coefficient (|g|^2 + eps^2)^((p-2)/2)
        per element, from the squared gradient magnitudes ``grad_sq`` =
        |g|^2 (``Field.grad_sq``), as a new array: a plain field's one
        ``**``, a stack's rows each by ``_power``. With eps = 0 a flat
        element would make it 0^((p-2)/2); the cap 1e-300 keeps it finite,
        and coefficient times g is then 0 there."""
        s = grad_sq + self.eps_sq
        np.maximum(s, 1e-300, out=s)
        e = self.coef_exp
        return _power(s, e, s) if isinstance(e, list) else s ** e

    def density(self, grad_sq: np.ndarray, coef: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """The lifted energy density (|g|^2 + eps^2)^(p/2) per element, as
        s c: s = |g|^2 + eps^2 from ``grad_sq``, not capped, so that it is
        exactly 0 where g and eps are, times ``coef``, the coefficient of
        the same ``grad_sq`` (``coefficient``). No second power: s c is
        within 2.5 * 2^-52 of s^(p/2), relatively. Into ``out`` if given,
        as a stack's ``Terms`` need."""
        s = np.add(grad_sq, self.eps_sq, out=out)
        s *= coef
        return s


def grad_p_norm(field: Field, p: float) -> float:
    """Integral of |grad u|^p over the domain, an element-wise quadrature."""
    return float(field.mesh.element_volumes @ field.grad_mag ** p)


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
    energy that a lagged-diffusivity step dissipates, of a plain field.

    Computed as E_p(u) + (1/p)(int (|grad u|^2 + eps^2)^(p/2) -
    int |grad u|^p) from ``snap``, the snapshot of ``field``, so that F is
    not evaluated a second time, with the lifted density of
    ``Terms.density``. The snapshot at the ``Terms`` of p and eps, alone
    or as a stack's row, holds the same value as ``E_eps``.
    """
    _check_p(p)
    terms, g = Terms(p, eps), field.grad_sq
    lifted = float(terms.density(g, terms.coefficient(g))
                   @ field.mesh.element_volumes)
    return snap.E_p + (lifted - snap.grad_p) / p


def nehari_I(field: Field, p: float, nl: Nonlinearity) -> float:
    """I_p(u) = int |grad u|^p - int f(u) u  (the derivative of E_p along u)."""
    _check_p(p)
    m = field.mesh
    return grad_p_norm(field, p) - m.integrate(nl.f(field.values) * field.values)


def energy_derivative(field: Field, direction: Field, p: float,
                      nl: Nonlinearity) -> float:
    """Directional derivative of E_p at ``field`` along ``direction``:
    int |grad u|^(p-2) grad u . grad v - int f(u) v."""
    _check_p(p)
    m = field.mesh
    diff = float(m.element_volumes
                 @ (Terms(p).coefficient(field.grad_sq)
                    * (field.grad * direction.grad).sum(axis=1)))
    return diff - m.integrate(nl.f(field.values) * direction.values)


# ---------------------------------------------------------------------------
# Nehari scaling and well depth
# ---------------------------------------------------------------------------

def nehari_scale(direction: Field, p: float, nl: Nonlinearity) -> float:
    """Positive scale t with I_p(t * direction) = 0.

    A ``Power`` reaction (the class itself, not a subclass) has t in closed
    form. For any other reaction the root finder narrows the bracket [1e-8,
    1e8] in log t, keeping the part where I_p(t phi) / t^p changes sign,
    until t is located to relative 1e-14, and returns the geometric mean of
    the last bracket. Each step evaluates the reaction at a bracketed
    secant point in log t, kept close enough to the midpoint that the loop
    ends within the 52 halvings that bisection takes (the ITP method of
    Oliveira and Takahashi, ACM TOMS 47, 2020): at most 54 evaluations of
    the reaction per direction, and about 17 on the library's reactions.
    Raises NehariScaleError when no sign change exists in the bracket: for
    theta > p, I_p(t phi) / t^p decreases strictly for every library
    reaction, so the bracket's two ends decide, and a bracket that holds
    the crossing keeps holding it.
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
    if type(nl) is Power:
        B = m.integrate(np.abs(phi) ** nl.q)
        return (A / B) ** (1.0 / (nl.q - p))

    def crossing(t):
        # (g, y) at t: g = I_p(t phi) / t^p = A - R, strictly decreasing by
        # (f1)-(f2), whose sign keeps the bracket (an overflow gives R =
        # inf, the exact limit the bracket relies on), and y = log(R / A),
        # which rises through 0 with it, nearly linearly in log t (exactly
        # for Power), and is -inf where R / A is not positive
        with np.errstate(over="ignore"):
            R = m.integrate(nl.f(t * phi) * phi) / t ** (p - 1.0)
        ratio = R / A
        return A - R, math.log(ratio) if ratio > 0 else -math.inf

    lo, hi = 1e-8, 1e8
    (g_lo, y_lo), (g_hi, y_hi) = crossing(lo), crossing(hi)
    if g_lo <= 0 or g_hi >= 0:
        raise NehariScaleError("no sign change of I_p(t phi) in [1e-8, 1e8]")
    # Halving brings log(hi / lo) from log 1e16 = 36.8 below 9e-15, inside
    # the 1e-14 below, in 52 steps. ``cap``, halved at every step from
    # 9e-15 * 2^52 = 40.5, is the widest bracket that the steps left can
    # still halve that far, and a point within (cap - width) / 2 of the
    # midpoint in log t leaves a width of at most cap / 2 (ITP's bound):
    # so the loop ends within 52 steps. The point is the secant point of
    # y (regula falsi), moved toward the midpoint by 0.02 width^2, which
    # closes the bracket from both ends, and kept within half that bound
    # of the midpoint, so that a point on the far side of the crossing
    # leaves some slack; with the whole bound, or with Illinois' halving
    # of a kept end's y, some directions took 54 evaluations. On the
    # 8-bump dictionaries of three meshes, with seven reactions and p =
    # 1.5, 1.2 and 1.05, this takes 17 on average and at most 36. The
    # midpoint, the geometric mean, is taken instead where an end's y is
    # infinite or the point is not strictly inside; it is within an ulp
    # or two of its exact value and lies strictly inside while hi / lo
    # exceeds 1 + 1e-14, so the loop ends
    cap = 9e-15 * 2.0 ** 52
    while hi - lo > 1e-14 * lo:
        width = math.log(hi / lo)
        mid = math.sqrt(lo * hi)
        if -math.inf < y_lo < y_hi < math.inf:
            x = width * (y_lo / (y_lo - y_hi) - 0.5)   # from mid, in log t
            x = math.copysign(max(abs(x) - 0.02 * width * width, 0.0), x)
            r = max(0.25 * (cap - width), 0.0)
            t = mid * math.exp(min(max(x, -r), r))
            if lo < t < hi:
                mid = t
        cap *= 0.5
        g_mid, y_mid = crossing(mid)
        if g_mid > 0:
            lo, y_lo = mid, y_mid
        else:
            hi, y_hi = mid, y_mid
    return math.sqrt(lo * hi)


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


def tent(mesh: Mesh, amplitude: float, center, width) -> Field:
    """The tensor tent of the given amplitude, ``center`` and full
    ``width`` per axis, Dirichlet-constrained."""
    prof = np.ones(mesh.n_nodes)
    for k in range(mesh.dim_coord):
        # |x - c| / (w/2) overflows to inf for a tiny width: profile 0
        with np.errstate(over="ignore"):
            dist = 2.0 * (np.abs(mesh.nodes[:, k] - center[k]) / width[k])
        prof *= np.maximum(0.0, 1.0 - dist)
    return Field(mesh, amplitude * prof).constrained()


def default_dictionary(mesh: Mesh, count: int = 8) -> list[Field]:
    """Bump profiles (tents at varying centers and widths) spanning the
    domain, Dirichlet-constrained."""
    fields = []
    lo = mesh.nodes.min(axis=0)
    span = mesh.nodes.max(axis=0) - lo
    n_centers = max(1, (count + 1) // 2)
    centers = [lo + span * (j + 1) / (n_centers + 1) for j in range(n_centers)]
    for w in (0.5, 0.25):
        for c in centers:
            if len(fields) >= count:
                break
            f = tent(mesh, 1.0, c, w * span)
            if f.sup() > 0:
                fields.append(f)
    return fields


def well_levels(mesh: Mesh, u0: Field, nl: Nonlinearity, ps) -> list[float]:
    """The level estimate d_hat (``estimate_dp``) of a run from ``u0`` at
    each p in ``ps``, over the 8 bumps of ``default_dictionary`` and u0
    itself when it is nonzero; infinity at every p without a reaction,
    where the well is the whole space."""
    if isinstance(nl, Zero):
        return [math.inf] * len(ps)
    dictionary = default_dictionary(mesh)
    if u0.sup() > 0:
        dictionary.append(u0)
    return [estimate_dp(mesh, p, nl, dictionary) for p in ps]


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


def check_f_conditions(nl: Nonlinearity) -> ConditionReport:
    """Numerical audit of the structural hypotheses on the reaction, on a
    logarithmic grid of |t| from 1e-8 to 10, with the vanishing rate of
    its own p0.

    Violations are reported, not raised: the degenerate Zero reaction fails
    the strict superlinearity inequality by construction.
    """
    sample_grid = np.logspace(-8, 1, 400)
    t = np.concatenate([-sample_grid[::-1], sample_grid])
    ft, Ft = nl.f(t), nl.F(t)

    small = sample_grid[sample_grid <= 10 * sample_grid.min()]
    tsmall = np.concatenate([-small, small])
    ratio = float(np.max(np.abs(nl.f(tsmall))
                         / np.abs(tsmall) ** (nl.p0 - 1.0)))

    theta = nl.theta if math.isfinite(nl.theta) else 1.0
    # the slack is judged where f t and F are finite: where either
    # overflows, inf - inf would read as a failure that is not there
    ftt = ft * t
    finite = np.isfinite(ftt) & np.isfinite(Ft)
    ftt, slack = ftt[finite], ftt[finite] - theta * Ft[finite]
    min_slack = float(slack.min())
    # strict positivity of theta F is part of the hypothesis
    ok = bool(min_slack >= -1e-12 * np.max(np.abs(ftt) + 1e-300)
              and np.all(Ft[np.abs(t) > 0] > 0))

    big = sample_grid[sample_grid >= 1.0]
    fb = np.abs(nl.f(big))
    # the growth is fitted where f is finite: log(inf) is not a sample
    finite = np.isfinite(fb)
    big, fb = big[finite], fb[finite]
    if len(fb) < 2:
        slope = math.inf            # f overflows from t = 1 on
    elif np.all(fb > 0):
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

@dataclass(slots=True)
class EnergySnapshot:
    """Per-time record of the variational diagnostics along a trajectory.
    A run keeps one per accepted state, so the record has slots and no
    instance dictionary."""

    time: float
    E_p: float
    I_p: float
    tv: float
    l2: float
    sup: float
    dissipation_cum: float
    grad_p: float   # int |grad u|^p
    E_eps: float    # E_p,eps at the eps of the snapshot's Terms


def snapshot(field: Field, t, terms: Terms, nl: Nonlinearity,
             dissipation_cum) -> EnergySnapshot | list[EnergySnapshot]:
    """The diagnostics of ``field`` at the p and eps of ``terms`` in one
    pass: int |grad u|^p, f(u), F(u) and the lagged coefficient are each
    evaluated once, f(u) and the coefficient are kept with the field
    (``Field.reaction``, ``Field.coefficient``) for the steps from it, and
    every integral is one quadrature dot product. Every field equals its
    definition (``energy``, ``nehari_I``, ``total_variation``,
    ``Field.l2``, ``Field.sup``, ``grad_p_norm``) bit for bit.

    A stack of k fields is evaluated in the same pass, with ``t`` and
    ``dissipation_cum`` given per row (k values) and ``terms`` holding the
    rows' p and eps, which ``march`` computes once per stack; the result
    is then the list of the k rows' snapshots, each equal to the snapshot
    of that row alone. ``E_eps`` is E_p,eps, equal to
    ``regularized_energy``, from the same pass: the energy that the step
    gate compares, whose lifted density (``Terms.density``) is the
    coefficient times |grad u|^2 + eps^2."""
    m = field.mesh
    u, mag, g = field.values, field.grad_mag, field.grad_sq
    vol, qw = m.element_volumes, m.quad_weights
    coef = field.coefficient(terms)
    if u.ndim == 1:
        # ndarray.dot: the bits of ``@`` (one BLAS ddot) at a lower fixed
        # cost
        cells = [float((mag ** terms.p_exp).dot(vol)), float(mag.dot(vol)),
                 float(terms.density(g, coef).dot(vol))]
        nodes = [float(nl.F(u).dot(qw)), float((field.reaction(nl) * u).dot(qw)),
                 float((u * u).dot(qw))]
        return EnergySnapshot(*_fields(t, terms.p_exp, dissipation_cum,
                                       field.sup(), cells, nodes))
    # a stack: the integrands of each quadrature are the rows of one array
    # (element-wise |grad u|^p, |grad u| and the lifted density; nodal F(u),
    # f(u) u and u^2), and one matrix product takes one dot product per row
    k = len(u)
    cells = np.empty((k, 3, m.n_elements))
    _power(mag, terms.p_exp, cells[:, 0])
    cells[:, 1] = mag
    terms.density(g, coef, cells[:, 2])
    nodes = np.empty((k, 3, m.n_nodes))
    nodes[:, 0] = nl.F(u)
    np.multiply(field.reaction(nl), u, out=nodes[:, 1])
    np.multiply(u, u, out=nodes[:, 2])
    return [EnergySnapshot(*_fields(*row)) for row in zip(
        t, terms.p_exp, dissipation_cum, field.sup().tolist(),
        rowdot(cells, vol).tolist(), rowdot(nodes, qw).tolist())]


def _fields(t, p, dissipation_cum, sup, cells, nodes) -> tuple:
    """The fields of one snapshot, in Python floats, from its element
    quadratures (int |grad u|^p, int |grad u| and the lifted integral) and
    nodal ones (int F(u), int f(u) u, int u^2)."""
    grad_p, tv, lifted = cells
    F, fu, uu = nodes
    E_p = grad_p / p - F
    return (t, E_p, grad_p - fu, tv, math.sqrt(uu), sup, dissipation_cum,
            grad_p, E_p + (lifted - grad_p) / p)
