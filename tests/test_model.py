"""Reactions, energies, Nehari scaling and well classification."""

import decimal
import functools
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import hyp1f1

from tvheat import (Annulus, Field, Interval, ModelError, NehariScaleError,
                    Power, Rectangle, SumPowers, Zero, build_mesh,
                    check_f_conditions, default_dictionary, energy,
                    estimate_dp, make_nonlinearity, nehari_I, nehari_scale,
                    well_status, WellStatus)
from tvheat.model import ExpPower, Terms, energy_derivative, grad_p_norm, \
    regularized_energy, snapshot, total_variation


@pytest.fixture
def mesh():
    return build_mesh(Interval(1.0), 100)


def hat(mesh, amp=1.0):
    x = mesh.nodes[:, 0]
    return Field(mesh, amp * np.maximum(0.0, 1.0 - 2.0 * np.abs(x - 0.5)))


@functools.cache
def z_inf(nl):
    """The smallest z at which ``nl._kummer``, 1F1(q/2; q/2 + 1; z) as
    ``ExpPower.F`` sums it, is inf: about 716. Found by multisection over
    the floats from 709, below which 1F1 <= e^z < 2^1023, to 723, from
    which every z overflows: every rounded operation of the sum is
    monotone, so the sum never falls as z rises."""
    lo, hi = np.array([709.0, 723.0]).view(np.int64).tolist()
    with np.errstate(over="ignore"):
        while hi - lo > 1:
            bits = sorted({lo + (hi - lo) * j // 64
                           for j in range(1, 64)} - {lo})
            z = np.array(bits, dtype=np.int64).view(float)
            finite = int(np.isfinite(nl._kummer(z)).sum())
            lo, hi = ([lo] + bits)[finite], (bits + [hi])[finite]
    return float(np.array(hi, dtype=np.int64).view(float))


class RootPower(Power):
    """``Power`` under another class: ``nehari_scale`` takes the closed form
    only for ``Power`` itself, so this reaction reaches the root finder."""


# every library reaction, with ExpPower past Z0, past its overflow and
# where |u|^q / q underflows
REACTIONS = [Zero(), Power(3.0), Power(1.5), SumPowers(4.0, 2.5),
             ExpPower(3.0, 1.0), ExpPower(2.0, 4096.0), ExpPower(2.5, 1e300),
             ExpPower(1.2, 0.7)]
# signed zeros, subnormals, +-inf, nan, values past Z0 and past the overflow
# of f or F for some reaction above, and any other float
_U = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, math.inf,
                                -math.inf, math.nan, 0.3, -1.0, 26.8, -30.0,
                                3e-149, -2e-149, 1e155, -1e200]),
               st.floats())


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


class TestNonlinearities:
    def test_zero(self):
        nl = Zero()
        u = np.linspace(-2, 2, 11)
        assert np.all(nl.f(u) == 0.0)
        assert np.all(nl.F(u) == 0.0)
        assert nl.theta == math.inf

    def test_power_values(self):
        nl = Power(q=3.0)
        assert nl.f(2.0) == pytest.approx(4.0)
        assert nl.f(-2.0) == pytest.approx(-4.0)
        assert nl.F(2.0) == pytest.approx(8.0 / 3.0)
        assert nl.theta == 3.0

    def test_power_odd_and_finite_at_zero(self):
        nl = Power(q=1.5)
        u = np.array([-1.0, 0.0, 1.0])
        out = nl.f(u)
        assert np.all(np.isfinite(out))
        assert out[1] == 0.0
        assert out[0] == -out[2]

    def test_sum_powers_theta(self):
        nl = SumPowers(q=4.0, s=2.5)
        assert nl.theta == 2.5
        assert nl.f(1.0) == pytest.approx(2.0)

    def test_exp_power_series_matches_quadrature(self):
        nl = ExpPower(q=3.0, alpha=0.7)
        for t in [0.1, 0.5, 1.3, -0.8]:
            ref, _ = quad(nl.f, 0.0, t)
            assert nl.F(t) == pytest.approx(ref, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("alpha, u", [(1.0, 25.0), (0.5, 30.0)])
    def test_exp_power_primitive_at_large_argument(self, alpha, u):
        # q = 2: F(u) = (exp(alpha u^2) - 1) / (2 alpha)
        nl = ExpPower(q=2.0, alpha=alpha)
        exact = math.expm1(alpha * u * u) / (2.0 * alpha)
        assert nl.F(u) == pytest.approx(exact, rel=1e-12)

    def test_exp_power_overflows_to_inf(self):
        # alpha u^2 from z_inf on, up to 1e12 and inf, is inf without a sum
        nl = ExpPower(q=3.0, alpha=1.0)
        for u in (1e6, 1e10, math.inf, -math.inf):
            assert nl.F(u) == math.inf
        assert nl.f(1e6) == math.inf and nl.f(-1e6) == -math.inf

    @staticmethod
    def _exp_power_sample(nl, n_random=0):
        # u with z = alpha u^2 at 0, deep in the series' range, on both
        # sides of Z0, past it up to just below z_inf, with +-u, nan and
        # +-inf; then n_random values of z spread over (0, Z0]
        z0 = nl.Z0
        z = np.array([0.0, 1e-12, 1e-4, 0.07, np.nextafter(z0, 0.0), z0,
                      np.nextafter(z0, 2.0), 1.2 * z0, 30.0, 100.0, 700.0,
                      np.nextafter(z_inf(nl), 0.0)])
        u = np.sqrt(z / nl.alpha)
        rng = np.random.default_rng(3)
        z_random = z0 * np.concatenate([rng.uniform(0, 1, n_random // 2),
                                        10 ** rng.uniform(-12, 0, n_random
                                                          - n_random // 2)])
        return np.concatenate([u, -u[::-1], [np.nan, np.inf, -np.inf],
                               np.sqrt(z_random / nl.alpha)])

    @staticmethod
    def _u_around_z_inf(nl):
        # adjacent floats u_below < u_at, with alpha u^2 (as F forms it)
        # below z_inf at u_below and from z_inf on at u_at
        u = np.array([math.sqrt(z_inf(nl) / nl.alpha)])
        while nl.alpha * u ** 2 >= z_inf(nl):
            u = np.nextafter(u, 0.0)
        while nl.alpha * u ** 2 < z_inf(nl):
            u_below, u = u, np.nextafter(u, math.inf)
        return float(u_below[0]), float(u[0])

    @classmethod
    def _past_z0(cls, nl):
        # u with alpha u^2 (as F forms it) spread over (Z0, z_inf), packed
        # into [700, z_inf), with the largest u below z_inf last; and that
        # alpha u^2
        z = np.concatenate([np.geomspace(np.nextafter(nl.Z0, 2.0), 700.0,
                                         40, endpoint=False),
                            np.linspace(700.0, z_inf(nl), 20,
                                        endpoint=False)])
        u = np.append(np.sqrt(z / nl.alpha), cls._u_around_z_inf(nl)[0])
        z = nl.alpha * u ** 2
        keep = (z > nl.Z0) & (z < z_inf(nl))
        return u[keep], z[keep]

    @staticmethod
    def _kummer_terms(a, z):
        # at most this many terms change the sum past Z0 at z: the first
        # k > z whose term a / (a + k) z^k / k! is below 2^-55 of the
        # term at floor(z), which the partial sum exceeds; and one more
        def log_term(k):
            return (math.log(a / (a + k)) + k * math.log(z)
                    - math.lgamma(k + 1))
        m = math.floor(z)
        k = m + 1
        while log_term(k) >= log_term(m) - 55 * math.log(2):
            k += 1
        return k + 1

    # The relative error of F past Z0, against |u|^q / q * 1F1(a; a + 1; z)
    # at the z that F forms, with K terms (at most _kummer_terms) and
    # u = 2^-53, is to first order at most
    #   (2K + 3) u  in each term: t_k takes 2k roundings, a / (a + k) two
    #               and the weighted term one;
    # + K u         in the ascending sum of K + 1 positive terms;
    # + 2 u         for the terms left out: each falls by z / k < 8/9 from
    #               one below 2^-55 of the sum, as k - z > z / 8 at z < 723;
    # + 10 u        for |u|^q / q, with pow allowed 4 ulp under any SIMD
    #               dispatch, and the last product:
    # (3K + 15) u. The scaling by 2^-64 and back is exact.
    @classmethod
    def _check_past_z0(cls, nl, kummer):
        # F against |u|^q / q * kummer(z), where kummer(z) gives
        # 1F1(q/2; q/2 + 1; z) to 40 digits as a string, across
        # (Z0, z_inf). Where the exact F is within the error bound of
        # overflowing, F may be inf; and 1F1 is that close to overflowing
        # at z_inf and just below it
        a = 0.5 * nl.q
        u, z = cls._past_z0(nl)
        F = nl.F(u)
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            D = decimal.Decimal
            top = D(sys.float_info.max)
            for ui, zi, Fi in zip(u, z, F):
                bound = D((3 * cls._kummer_terms(a, zi) + 15) * 2.0 ** -53)
                ref = abs(D(ui)) ** D(nl.q) / D(nl.q) * D(kummer(zi))
                if Fi == math.inf:
                    assert ref >= top * (1 - bound), zi
                else:
                    assert abs(D(Fi) - ref) <= bound * ref, zi
            bound = D((3 * cls._kummer_terms(a, z_inf(nl)) + 15) * 2.0 ** -53)
            assert D(kummer(np.nextafter(z_inf(nl), 0.0))) <= top * (1 + bound)
            assert D(kummer(z_inf(nl))) >= top * (1 - bound)
        return F

    @pytest.mark.parametrize("q", [2.5, 3.0, 5.0])
    @pytest.mark.parametrize("alpha", [1.0, 0.7, 4096.0])
    def test_exp_power_primitive_matches_mpmath(self, q, alpha):
        # at alpha <= 1, |u|^q / q > 1 past z = 700 and F overflows
        # before 1F1 does; at alpha = 4096 it is below 1 and F stays finite
        # up to z_inf
        mpmath = pytest.importorskip("mpmath")
        a = 0.5 * q

        def kummer(z):
            with mpmath.workdps(40):
                return str(mpmath.hyp1f1(a, a + 1, mpmath.mpf(z)))
        F = self._check_past_z0(ExpPower(q, alpha), kummer)
        assert np.isfinite(F[-1]) == (alpha == 4096.0)

    @pytest.mark.parametrize("q", [2.0, 4.0])
    @pytest.mark.parametrize("alpha", [1.0, 4096.0])
    def test_exp_power_primitive_closed_forms(self, q, alpha):
        # 1F1(1; 2; z) = (e^z - 1) / z, so F = (e^z - 1) / (2 alpha) for
        # q = 2; and 1F1(2; 3; z) = 2 (e^z (z - 1) + 1) / z^2 for q = 4.
        # Evaluated in the caller's 40-digit decimal context
        def kummer(z):
            z = decimal.Decimal(z)
            e = z.exp()
            if q == 2.0:
                return str((e - 1) / z)
            return str(2 * (e * (z - 1) + 1) / z ** 2)
        F = self._check_past_z0(ExpPower(q, alpha), kummer)
        assert np.isfinite(F[-1]) == (alpha == 4096.0)

    @pytest.mark.parametrize("q, alpha", [(2.0, 1.0), (3.0, 1.0),
                                          (2.5, 0.7), (4.0, 3.0)])
    def test_exp_power_primitive_is_pointwise(self, q, alpha):
        # the series' length follows the array's largest alpha u^2, but
        # each value is the one its node gets alone: as a scalar, a slice
        # or a row of a stack
        nl = ExpPower(q, alpha)
        u = self._exp_power_sample(nl, n_random=600)
        F = nl.F(u)
        for i, ui in enumerate(u):
            np.testing.assert_array_equal(nl.F(u[i:i + 1]), F[i:i + 1])
            np.testing.assert_array_equal(nl.F(ui), F[i])
        rng = np.random.default_rng(7)
        stack = np.stack([u, u[::-1], rng.permutation(u), 1e-3 * u])
        Fs = nl.F(stack)
        for row, Frow in zip(stack, Fs):
            np.testing.assert_array_equal(nl.F(row), Frow)
        decayed = 1e-3 * u[np.isfinite(u)]
        np.testing.assert_array_equal(nl.F(decayed),
                                      [nl.F(v) for v in decayed])

    @pytest.mark.parametrize("nl", [Zero(), Power(3.0), SumPowers(3.0, 4.5),
                                    ExpPower(3.0, 1.0)],
                             ids=["zero", "power", "sum_powers", "exp_power"])
    def test_scalar_is_its_node(self, nl):
        # numpy's scalar pow can differ in the last bit from its array
        # loop: a 0-d u is evaluated as a one-node array
        u = np.linspace(-2.0, 2.0, 4001)
        for fn in (nl.f, nl.F):
            values = fn(u).tobytes()
            assert np.array([fn(v) for v in u]).tobytes() == values
            assert np.array([fn(v) for v in u.tolist()]).tobytes() == values

    @pytest.mark.parametrize("alpha", [1.0, 0.7, 2.0])
    def test_exp_power_primitive_at_q2_matches_expm1(self, alpha):
        # q = 2: F(u) = (exp(alpha u^2) - 1) / (2 alpha), within 4 ulp for
        # alpha u^2 up to a little past Z0
        nl = ExpPower(2.0, alpha)
        u = np.sqrt(np.linspace(0.0, 1.2 * nl.Z0, 4001)[1:] / alpha)
        exact = np.expm1(alpha * u ** 2) / (2.0 * alpha)
        ulps = np.abs(nl.F(u) - exact) / np.spacing(exact)
        assert ulps.max() <= 4.0

    @pytest.mark.parametrize("q", [2.5, 3.0, 4.0])
    def test_exp_power_series_matches_hyp1f1(self, q):
        nl = ExpPower(q, 1.0)
        u = np.sqrt(np.linspace(0.0, nl.Z0, 4001)[1:])
        a = 0.5 * q
        ref = np.abs(u) ** q / q * hyp1f1(a, a + 1.0, u ** 2)
        ulps = np.abs(nl.F(u) - ref) / np.spacing(ref)
        assert ulps.max() <= 8.0

    def test_exp_power_primitive_edge_values(self):
        # at alpha = 4096, |u|^q / q < 1 up to z_inf, so F is finite on
        # both sides of it: from z_inf on, where 1F1 overflows but F's
        # product does not, F is taken in log space
        nl = ExpPower(3.0, 4096.0)
        u = self._exp_power_sample(nl)
        u_below, u_at = self._u_around_z_inf(nl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F, F_neg = nl.F(u), nl.F(-u)
            zero, nan = nl.F(0.0), nl.F(math.nan)
            below, at = nl.F(u_below), nl.F(u_at)
            past = nl.F([u_at, -u_at, 1.0, 1e6, math.inf, -math.inf])
        assert zero == 0.0 and nl.F(np.zeros(3)).tolist() == [0.0] * 3
        np.testing.assert_array_equal(F, F_neg)
        assert math.isnan(nan) and np.isnan(F[-3])
        assert math.isfinite(below) and math.isfinite(at)
        assert abs(at / below - 1.0) < 1e-12
        assert past[0] == past[1] == at and np.all(past[2:] == math.inf)
        # z_inf is the first float at which the sum itself overflows
        with np.errstate(over="ignore"):
            kummer = nl._kummer(np.array([np.nextafter(z_inf(nl), 0.0),
                                          z_inf(nl)]))
        assert math.isfinite(kummer[0]) and kummer[1] == math.inf
        assert np.all(F[np.isfinite(u) & (u != 0)] > 0)

    @settings(deadline=None, max_examples=200)
    @given(nl=st.sampled_from(REACTIONS), rows=st.integers(0, 3),
           data=st.data())
    def test_one_pass_reaction_is_f_and_F(self, nl, rows, data):
        # f_and_F, which snapshot evaluates, gives f and F bit for bit, on
        # a plain array (rows = 0) and on a stack of rows, under the
        # errstate snapshot evaluates it in
        n = data.draw(st.integers(1, 6))
        u = np.array(data.draw(st.lists(_U, min_size=n * max(rows, 1),
                                        max_size=n * max(rows, 1))))
        if rows:
            u = u.reshape(rows, n)
        with np.errstate(over="ignore", invalid="ignore"):
            pair = nl.f_and_F(u)
            assert _bits(*pair) == _bits(nl.f(u), nl.F(u))
        assert [a.shape for a in pair] == [u.shape, u.shape]

    @pytest.mark.parametrize("q, alpha, u", [
        (3.0, 1e6, math.sqrt(720e-6)),     # 1F1 overflows, F is 6.6e304
        (3.0, 1e300, 3e-149),
        (2.5, 1e300, 2e-149)],             # z = 400: 1F1 is finite
        ids=["1F1_overflows", "lead_underflows", "lead_underflows_1F1_finite"])
    def test_exp_power_primitive_past_the_overflow(self, q, alpha, u):
        # where 1F1 overflows but F is in range, and where |u|^q / q
        # underflows while 1F1 overflows, F is finite, within 1e-12 of
        # mpmath's at 40 digits, and evaluated without a warning
        mpmath = pytest.importorskip("mpmath")
        nl = ExpPower(q, alpha)
        with mpmath.workdps(40):
            v = mpmath.mpf(u)
            a = mpmath.mpf(q) / 2
            ref = abs(v) ** q / q * mpmath.hyp1f1(a, a + 1, alpha * v * v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = nl.F(u)
            assert nl.F([u, -u, 0.5 * u]).tolist()[:2] == [F, F]
        assert math.isfinite(F) and abs(F - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("q, alpha, u, ref", [
        (3.0, 1e300, 3e-149, "6.595932800077603551116502350411214e93"),
        (400.0, 43680.0, 0.15, "1.216267711889656242390841383290421e98")],
        ids=["exp_overflows", "power_underflows"])
    def test_exp_power_reaction_past_the_overflow(self, q, alpha, u, ref):
        # where e^(alpha u^2) overflows but f is in range, f is finite,
        # within 1e-12 of mpmath's at 40 digits (``ref``), odd, evaluated
        # without a warning, and f_and_F (under the errstate a snapshot
        # gives it) gives the bits of f and F
        nl = ExpPower(q, alpha)
        u3 = np.array([u, -u, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = nl.f(u)
            alone = nl.f(u3), nl.F(u3)
        with np.errstate(over="ignore", invalid="ignore"):
            pair = nl.f_and_F(u3)
        assert math.isfinite(f) and abs(f - float(ref)) <= 1e-12 * float(ref)
        assert alone[0].tolist()[:2] == [f, -f]
        assert _bits(*pair) == _bits(*alone)

    def test_make_nonlinearity(self):
        assert isinstance(make_nonlinearity("zero"), Zero)
        assert isinstance(make_nonlinearity("power", q=3.0), Power)
        with pytest.raises(ModelError):
            make_nonlinearity("unknown")

    def test_invalid_parameters(self):
        with pytest.raises(ModelError):
            Power(q=1.0)
        with pytest.raises(ModelError):
            SumPowers(q=0.5, s=5.0)
        with pytest.raises(ModelError):
            Power(q=3.0, p0=2.5)
        # infinite exponents and rates used to be accepted
        for make in (lambda: Power(q=math.inf),
                     lambda: SumPowers(q=3.0, s=math.inf),
                     lambda: ExpPower(q=math.inf, alpha=1.0),
                     lambda: ExpPower(q=3.0, alpha=math.inf)):
            with pytest.raises(ModelError):
                make()


class TestEnergies:
    def test_grad_p_norm_on_hat(self, mesh):
        # |grad| = 2 everywhere under the hat, so int |grad|^p = 2^p
        f = hat(mesh)
        for p in (1.0, 1.5, 2.0):
            assert grad_p_norm(f, p) == pytest.approx(2.0 ** p, rel=1e-12)

    def test_grad_p_norm_with_as_many_elements_as_nodes(self):
        # 12 nodes and 12 triangles: the quadrature is still element-wise
        m = build_mesh(Rectangle(1.0, 1.0), [2, 3])
        f = Field(m, np.random.default_rng(2).normal(size=12))
        ref = sum(v * g ** 1.5 for v, g in zip(m.element_volumes, f.grad_mag))
        assert grad_p_norm(f, 1.5) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("resolution", [[2, 3], [3, 2]])
    def test_energy_derivative_with_as_many_elements_as_nodes(self,
                                                             resolution):
        # 12 nodes and 12 triangles: the gradient term is still element-wise
        m = build_mesh(Rectangle(1.0, 1.0), resolution)
        assert m.n_nodes == m.n_elements
        rng = np.random.default_rng(4)
        u, v = (Field(m, rng.normal(size=m.n_nodes)) for _ in range(2))
        p, nl = 1.5, Power(q=3.0)
        ref = sum(vol * (gu @ gu) ** ((p - 2.0) / 2.0) * (gu @ gv)
                  for vol, gu, gv in zip(m.element_volumes, u.grad, v.grad))
        ref -= sum(w * fu * vv for w, fu, vv
                   in zip(m.quad_weights, nl.f(u.values), v.values))
        assert energy_derivative(u, v, p, nl) == pytest.approx(ref, rel=1e-13)

    def test_total_variation(self, mesh):
        assert total_variation(hat(mesh, 3.0)) == pytest.approx(6.0)

    def test_grad_p_norm_reads_the_kept_magnitude(self, mesh):
        # the cached magnitude changes no bit of int |grad u|^p
        rng = np.random.default_rng(3)
        f = Field(mesh, rng.normal(size=mesh.n_nodes))
        mag = np.sqrt((mesh.gradient(f.values) ** 2).sum(axis=1))
        for p in (1.0, 1.5, 2.0):
            assert grad_p_norm(f, p) == float(mesh.element_volumes @ mag ** p)

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 400), (Annulus(1.0, 2.0, dim=3), 200),
        (Rectangle(1.0, 1.0), [9, 7])], ids=["interval", "annulus", "rect"])
    @pytest.mark.parametrize("nl", [Zero(), Power(3.0), ExpPower(3.0, 1.0)],
                             ids=["zero", "power", "exp_power"])
    def test_snapshot_equals_the_definitions(self, domain, resolution, nl):
        # the one-pass snapshot changes no bit of any diagnostic
        m = build_mesh(domain, resolution)
        rng = np.random.default_rng(5)
        f = Field(m, rng.uniform(-1.0, 1.0, m.n_nodes)).constrained()
        for p in (1.01, 1.5, 2.0):
            s = snapshot(f, 0.25, Terms(p), nl, 0.5)
            assert (s.time, s.dissipation_cum) == (0.25, 0.5)
            assert s.E_p == energy(f, p, nl)
            assert s.I_p == nehari_I(f, p, nl)
            assert s.tv == total_variation(f)
            assert s.l2 == f.l2() and s.sup == f.sup()
            assert s.grad_p == grad_p_norm(f, p)

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 400), (Annulus(1.0, 2.0, dim=3), 200),
        (Rectangle(1.0, 1.0), [9, 7])], ids=["interval", "annulus", "rect"])
    @pytest.mark.parametrize("nl", [Zero(), Power(3.0), ExpPower(3.0, 1.0)],
                             ids=["zero", "power", "exp_power"])
    def test_stack_snapshot_is_each_rows(self, domain, resolution, nl):
        # one pass over a stack gives each row its own snapshot, and so
        # its definitions, bit for bit; p = 2 is a numpy ** shortcut
        m = build_mesh(domain, resolution)
        rng = np.random.default_rng(8)
        stack = Field(m, rng.uniform(-1.0, 1.0, (4, m.n_nodes))).constrained()
        ps, eps = np.array([1.01, 1.5, 2.0, 1.25]), np.array([0.0, 1e-4,
                                                             0.5, 1e-2])
        times, cum = [0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0]
        snaps = snapshot(stack, times, Terms(ps, eps), nl, cum)
        for i, (s, p, e) in enumerate(zip(snaps, ps.tolist(), eps.tolist())):
            f = Field(m, stack.values[i])
            alone = snapshot(f, times[i], Terms(p, e), nl, cum[i])
            assert s == alone
            assert (s.E_p, s.I_p, s.tv, s.l2, s.sup, s.grad_p) == (
                energy(f, p, nl), nehari_I(f, p, nl), total_variation(f),
                f.l2(), f.sup(), grad_p_norm(f, p))
            assert s.E_eps == regularized_energy(f, p, e, alone)
            assert np.array_equal(
                Terms(ps, eps).coefficient(stack.grad_sq)[i],
                Terms(p, e).coefficient(f.grad_sq))

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 400), (Annulus(1.0, 2.0, dim=3), 200),
        (Rectangle(1.0, 1.0), [9, 7])], ids=["interval", "annulus", "rect"])
    @pytest.mark.parametrize("nl", [Zero(), Power(3.0), ExpPower(3.0, 1.0)],
                             ids=["zero", "power", "exp_power"])
    def test_snapshot_holds_the_regularized_energy(self, domain, resolution,
                                                   nl):
        # at the Terms of p and eps, a snapshot's E_eps is
        # regularized_energy bit for bit, alone and for each row of a stack
        m = build_mesh(domain, resolution)
        rng = np.random.default_rng(7)
        stack = Field(m, rng.uniform(-1.0, 1.0, (3, m.n_nodes))).constrained()
        ps, eps = np.array([1.01, 1.5, 2.0]), np.array([1e-4, 0.5, 0.0])
        rows = snapshot(stack, [0.0] * 3, Terms(ps, eps), nl, [0.0] * 3)
        for i, (p, e) in enumerate(zip(ps.tolist(), eps.tolist())):
            f = stack.rows(i)
            alone = snapshot(f, 0.0, Terms(p, e), nl, 0.0)
            assert alone.E_eps == regularized_energy(f, p, e, alone)
            assert rows[i] == alone

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0])
    @pytest.mark.parametrize("eps", [0.0, 1e-4, 0.5])
    def test_lifted_density_is_s_times_the_coefficient(self, p, eps):
        # the lifted density is s c, with s = |grad u|^2 + eps^2 and c =
        # s^((p-2)/2), the coefficient, instead of its own pow s^(p/2).
        # numpy's float64 pow is within 1 ulp of the exact power, so c and
        # the reference s^(p/2) each err by at most 2^-52 of their values,
        # and the product adds a rounding of at most 2^-53: s c is within
        # (2^-52 + 2^-53 + 2^-52) s^(p/2), times 1 + 2^-50 for the
        # second-order terms. Where the gradient and eps vanish, s = 0 is
        # not capped, and s c is exactly 0
        m = build_mesh(Interval(1.0), 400)
        rng = np.random.default_rng(13)
        values = rng.uniform(-1.0, 1.0, (3, m.n_nodes)) * np.logspace(
            -6.0, 0.0, 3)[:, None]
        values[:, :40] = 0.0            # a plateau: grad u = 0 there
        stack = Field(m, values).constrained()
        k = len(values)
        terms = Terms(np.full(k, p), np.full(k, eps))
        g = stack.grad_sq
        density = terms.density(g, terms.coefficient(g))
        s = g + eps ** 2
        ref = s ** (p / 2.0)
        assert np.all(np.abs(density - ref)
                      <= 2.5 * 2.0 ** -52 * ref * (1.0 + 2.0 ** -50))
        flat = g == 0.0
        assert flat.sum() >= 3 * 38
        if eps == 0.0:
            assert np.all(density[flat] == 0.0)
        # each row is what it is alone, and what regularized_energy and
        # the snapshot integrate
        for i in range(k):
            alone = Terms(p, eps)
            row = alone.density(g[i], alone.coefficient(g[i]))
            assert row.tobytes() == density[i].tobytes()
            f = stack.rows(i)
            lifted = float(row @ m.element_volumes)
            snap = snapshot(f, 0.0, alone, Zero(), 0.0)
            assert regularized_energy(f, p, eps, snap) == \
                snap.E_p + (lifted - snap.grad_p) / p

    @pytest.mark.parametrize("p", [1.0, 0.5, math.nan])
    def test_p_at_most_one_fails_by_name(self, mesh, p):
        # every function of p that the well machinery calls rejects
        # p <= 1 (and NaN, which fails the comparison) with a float p
        nl, u = Power(q=3.0), hat(mesh)
        calls = {"energy": lambda: energy(u, p, nl),
                 "nehari_I": lambda: nehari_I(u, p, nl),
                 "nehari_scale": lambda: nehari_scale(u, p, nl),
                 "estimate_dp": lambda: estimate_dp(mesh, p, nl, [u]),
                 "well_status": lambda: well_status(u, p, nl, 1.0)}
        for name, call in calls.items():
            with pytest.raises(ModelError, match="p must exceed 1"):
                call()

    def test_energy_zero_reaction(self, mesh):
        f = hat(mesh)
        assert energy(f, 2.0, Zero()) == pytest.approx(2.0, rel=1e-12)

    def test_nehari_identity_with_derivative(self, mesh):
        f = hat(mesh, 0.7)
        nl = Power(q=3.0)
        p = 1.5
        assert energy_derivative(f, f, p, nl) == pytest.approx(
            nehari_I(f, p, nl), rel=1e-12)

    def test_energy_derivative_matches_finite_differences(self, mesh):
        rng = np.random.default_rng(5)
        nl = Power(q=3.0)
        p = 1.5
        u = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
        v = Field(mesh, rng.normal(size=mesh.n_nodes)).constrained()
        h = 1e-6
        up = Field(mesh, u.values + h * v.values)
        um = Field(mesh, u.values - h * v.values)
        fd = (energy(up, p, nl) - energy(um, p, nl)) / (2.0 * h)
        assert energy_derivative(u, v, p, nl) == pytest.approx(fd, rel=1e-6)


class TestNehariScale:
    def test_power_closed_form_consistency(self, mesh):
        f = hat(mesh)
        nl = Power(q=3.0)
        p = 1.5
        t_auto = nehari_scale(f, p, nl)
        t_root = nehari_scale(f, p, RootPower(q=3.0))
        assert t_auto == pytest.approx(t_root, rel=1e-10)
        scaled = Field(mesh, t_auto * f.values)
        assert abs(nehari_I(scaled, p, nl)) <= 1e-10 * (
            1.0 + grad_p_norm(scaled, p))

    def test_zero_reaction_has_no_scale(self, mesh):
        with pytest.raises(NehariScaleError):
            nehari_scale(hat(mesh), 1.5, Zero())

    def test_zero_direction_rejected(self, mesh):
        with pytest.raises(NehariScaleError):
            nehari_scale(Field.zeros(mesh), 1.5, Power(q=3.0))

    @pytest.mark.parametrize("p", [2.0, 2.5], ids=["equal", "above"])
    def test_theta_at_most_p_has_no_scale(self, mesh, p):
        # Power(q=2) has theta = 2
        with pytest.raises(NehariScaleError, match="theta > p"):
            nehari_scale(hat(mesh), p, Power(q=2.0))

    @pytest.mark.parametrize("nl, most", [
        (RootPower(3.0), 20), (SumPowers(4.0, 2.5), 18),
        (ExpPower(3.0, 1.0, p0=1.9), 24)],
        ids=["power", "sum_powers", "exp_power"])
    def test_root_matches_brentq(self, nl, most, monkeypatch):
        # brentq at rtol 1e-14 is the reference; each scale locates t to
        # relative 1e-14, so the two agree within 2e-14. The root finder
        # evaluates the reaction 15 to 17 times per direction on Power, 14
        # to 15 on SumPowers and 18 to 21 on ExpPower (``most`` allows 3
        # more); brentq takes about 65 on ExpPower, 16 to 20 on the other
        # two
        mesh = build_mesh(Annulus(1.0, 2.0, dim=3), 800)
        p = 1.5
        calls = []
        f = nl.f

        def counted(u):
            calls.append(u)
            return f(u)
        monkeypatch.setattr(nl, "f", counted)
        for phi in default_dictionary(mesh, 8):
            calls.clear()
            t = nehari_scale(phi, p, nl)
            assert len(calls) <= most
            A, v = grad_p_norm(phi, p), phi.values

            def g(s):
                with np.errstate(over="ignore"):
                    return A - mesh.integrate(f(s * v) * v) / s ** (p - 1.0)
            ref = brentq(g, 1e-8, 1e8, rtol=1e-14, xtol=1e-300, maxiter=200)
            assert t == pytest.approx(ref, rel=2e-14, abs=0.0)

    @pytest.mark.parametrize("nl, most", [
        (RootPower(3.0), 20), (SumPowers(4.0, 2.5), 20),
        (ExpPower(3.0, 1.0, p0=1.9), 54), (SumPowers(1.6, 9.0), 54),
        (ExpPower(2.0, 50.0), 54)],
        ids=["power", "sum_powers", "exp_power", "steep_sum", "steep_exp"])
    def test_root_finder_evaluations(self, nl, most, monkeypatch):
        # the root finder keeps within the 52 halvings that bisection
        # takes, so no direction costs more than 54 evaluations of the
        # reaction; its secant points take 20 or fewer on Power and
        # SumPowers(4, 2.5), as brentq's 16 to 20 did
        mesh = build_mesh(Annulus(1.0, 2.0, dim=3), 800)
        calls = [0]
        f = nl.f

        def counted(u):
            calls[0] += 1
            return f(u)
        monkeypatch.setattr(nl, "f", counted)
        for p in (1.5, 1.2, 1.05):
            for phi in default_dictionary(mesh, 8):
                calls[0] = 0
                t = nehari_scale(phi, p, nl)
                assert calls[0] <= (most if p == 1.5 else 54)
                scaled = Field(mesh, t * phi.values)
                assert abs(nehari_I(scaled, p, nl)) <= 1e-9 * (
                    1.0 + grad_p_norm(scaled, p))

    def test_sum_powers_root(self, mesh):
        nl = SumPowers(q=4.0, s=2.5)
        t = nehari_scale(hat(mesh), 1.5, nl)
        scaled = Field(mesh, t * hat(mesh).values)
        assert abs(nehari_I(scaled, 1.5, nl)) <= 1e-9 * (
            1.0 + grad_p_norm(scaled, 1.5))

    def test_exp_power_probe_overflows_silently(self):
        # the bracket probes t up to 1e8, where exp(alpha t^2 phi^2)
        # overflows to the limit -inf of I_p(t phi) / t^p
        mesh = build_mesh(Annulus(1.0, 2.0, dim=3), 800)
        nl = ExpPower(3.0, 1.0, p0=1.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d_hat = estimate_dp(mesh, 1.5, nl, default_dictionary(mesh, 8))
        # d_hat is a minimum of E_p(t phi), and E_p is stationary along the
        # ray at the Nehari scale, so t's relative error of 1e-14 moves it
        # by about 1e-28. What remains is rounding: E_p = G - Phi, with
        # G = (1/p) int |grad t phi|^p and Phi = int F(t phi) each a
        # quadrature of at most 801 positive terms, each within 8 ulp (F's
        # bound), which their evaluation and sum move by at most about 810
        # unit roundoffs, 9e-14, of itself. On the Nehari set
        # theta Phi <= int f(t phi) t phi = p G, so with theta = 3 and
        # p = 1.5, G <= 2 E_p and Phi <= E_p: one evaluation errs by at
        # most 3 * 9e-14 of E_p, and two (another root finder, or other
        # SIMD kernels) differ by at most 5.4e-13 of it
        assert d_hat == pytest.approx(131.4552688774503, rel=1e-12, abs=0.0)


class TestWell:
    def test_dictionary_and_level(self, mesh):
        dic = default_dictionary(mesh, 8)
        assert len(dic) == 8
        assert all(f.is_dirichlet() for f in dic)
        d_hat = estimate_dp(mesh, 1.5, Power(q=3.0), dic)
        assert 0.0 < d_hat < math.inf

    def test_empty_dictionary_fails_by_name(self, mesh):
        with pytest.raises(ModelError, match="empty dictionary"):
            estimate_dp(mesh, 1.5, Power(q=3.0), [])

    @pytest.mark.parametrize("domain, resolution", [
        (Interval(1.0), 77), (Annulus(1.0, 2.0, dim=3), 51),
        (Rectangle(1.0, 1.0), [17, 9])])
    @pytest.mark.parametrize("count", [1, 3, 8, 11])
    def test_dictionary_is_the_tent_formula(self, domain, resolution, count):
        # the bumps are model.tent's; the formula they were built with
        # before, kept here as the reference, gives the same bits
        mesh = build_mesh(domain, resolution)
        coords = mesh.nodes
        lo, hi = coords.min(axis=0), coords.max(axis=0)
        span = hi - lo
        n_centers = max(1, (count + 1) // 2)
        reference = []
        for w in (0.5, 0.25):
            for j in range(n_centers):
                c = lo + span * (j + 1) / (n_centers + 1)
                half = 0.5 * w * span
                prof = np.ones(mesh.n_nodes)
                for k in range(coords.shape[1]):
                    prof = prof * np.maximum(
                        0.0, 1.0 - np.abs(coords[:, k] - c[k]) / half[k])
                f = Field(mesh, prof).constrained()
                if f.sup() > 0:
                    reference.append(f.values)
        dic = default_dictionary(mesh, count)
        assert len(dic) == min(count, len(reference))
        for f, ref in zip(dic, reference):
            assert f.values.tobytes() == ref.tobytes()

    def test_zero_state_inside(self, mesh):
        rep = well_status(Field.zeros(mesh), 1.5, Power(q=3.0), 1.0)
        assert rep.status is WellStatus.INSIDE

    def test_small_state_inside(self, mesh):
        nl = Power(q=3.0)
        dic = default_dictionary(mesh, 8)
        d_hat = estimate_dp(mesh, 1.5, nl, dic)
        rep = well_status(hat(mesh, 0.01), 1.5, nl, d_hat)
        assert rep.status is WellStatus.INSIDE
        assert rep.margin_E > 0
        assert rep.margin_I > 0

    def test_near_zero_state_inside(self, mesh):
        # I_p is about int |grad u|^p > 0 near u = 0; an absolute slack of
        # 1e-9 used to put this state on the Nehari manifold
        rep = well_status(hat(mesh, 1e-8), 1.5, Power(q=3.0), 1.0)
        assert rep.status is WellStatus.INSIDE
        assert 0 < rep.margin_I < 1e-9

    def test_scaled_state_on_nehari(self, mesh):
        nl = Power(q=3.0)
        f = hat(mesh)
        t = nehari_scale(f, 1.5, nl)
        rep = well_status(Field(mesh, t * f.values), 1.5, nl, 1e9)
        assert rep.status is WellStatus.ON_NEHARI

    def test_large_state_outside(self, mesh):
        nl = Power(q=3.0)
        f = hat(mesh)
        t = nehari_scale(f, 1.5, nl)
        rep = well_status(Field(mesh, 3.0 * t * f.values), 1.5, nl, 1e9)
        assert rep.status is WellStatus.OUTSIDE


class TestConditions:
    def test_power_satisfies_hypotheses(self):
        rep = check_f_conditions(Power(q=3.0))
        assert rep.superlinearity_ok
        assert rep.growth_exponent == pytest.approx(2.0, abs=0.05)
        assert rep.vanishing_ratio < 1e-6

    def test_overflowing_primitive_judged_where_finite(self):
        # ExpPower(2, 50)'s f and F overflow on 38 points of the grid; the
        # slack is judged on the rest, without an inf - inf, and holds
        nl = ExpPower(2, 50)
        t = np.logspace(-8, 1, 400)
        with np.errstate(over="ignore"):
            assert np.isinf(nl.F(t)).sum() == 19
        rep = check_f_conditions(nl)    # a RuntimeWarning fails the test
        assert rep.superlinearity_ok
        assert math.isfinite(rep.superlinearity_slack)

    def test_overflowing_reaction_growth_fitted_where_finite(self):
        # ExpPower(2, 50)'s f overflows on the grid's last points; the
        # growth is fitted on the rest, where log(inf) made it nan. A grid
        # without overflow keeps its fit, and radial_exp's summary its bytes
        nl = ExpPower(2, 50)
        t = np.logspace(-8, 1, 400)
        with np.errstate(over="ignore"):
            assert not np.isfinite(nl.f(t[t >= 1.0])).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_f_conditions(nl)
        assert math.isfinite(rep.growth_exponent)
        assert rep.growth_exponent > 0
        assert check_f_conditions(ExpPower(3, 1)).growth_exponent == \
            35.846815426891055

    def test_zero_reaction_reported_degenerate(self):
        rep = check_f_conditions(Zero())
        assert rep.vanishing_ratio == 0.0
