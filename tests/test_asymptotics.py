"""Bell polynomials, descent coefficients, expansions, quadrature."""

import math
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp, mpc, mpf, pi

from pfrac.asymptotics import (LocalSeriesPair, a3_quadrature,
                               b_coeffs, bell_partial, c_coeffs,
                               decay_exponent, evaluate_expansion,
                               family_leading, local_series,
                               path_positivity_check, saddle_path, u_weight,
                               vstar_weight, wojdylo_a2s)
from pfrac.dilog import find_saddle, find_zero
from pfrac.precision import HPComplex
from pfrac.residues import a1_sum

PREC = 256


def _zw(prec=PREC):
    s = find_saddle(1, 0, prec)
    w = find_zero((0, -1), prec=prec).w.value
    return s, s.z.value, w


# -- partial ordinary Bell polynomials ------------------------------------------------

def test_bell_diagonal_and_empty():
    p = [Fraction(3), Fraction(5), Fraction(7)]
    for j in range(4):
        assert bell_partial(j, j, p) == Fraction(3) ** j
    assert bell_partial(0, 0, p) == 1
    assert bell_partial(3, 0, p) == 0


def test_bell_small_case():
    p = [Fraction(2), Fraction(3), Fraction(5)]
    # coefficient of x^3 in (p1 x + p2 x^2 + p3 x^3)^2 = 2 p1 p2
    assert bell_partial(3, 2, p) == 2 * Fraction(2) * Fraction(3)


def test_bell_generating_identity(rng):
    # exact: coefficients of (sum p_i x^i)^j are the B-hat_{i,j}
    for _ in range(4):
        p = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(6)]
        for j in range(5):
            # expand the power directly
            poly = [Fraction(1)] + [Fraction(0)] * 24
            base = [Fraction(0)] + p + [Fraction(0)] * (25 - len(p) - 1)
            for _ in range(j):
                new = [Fraction(0)] * 25
                for a in range(25):
                    if poly[a]:
                        for b in range(1, 25 - a):
                            if base[b]:
                                new[a + b] += poly[a] * base[b]
                poly = new
            for i in range(12):
                assert bell_partial(i, j, p) == poly[i]


# -- local series at the saddle ---------------------------------------------------------

def test_local_series_phase_coefficients():
    s, z0, w0 = _zw()
    pair = local_series(s, None, 12, PREC)
    with mp.workprec(300):
        e0 = mpmath.exp(2j * pi * z0)
        p0 = pair.p[0]
        assert abs(p0 - (-pi * 1j * e0 / (z0 * w0))) < mpf(2) ** -220
        assert abs(pair.p[1] / p0 - (-1 / z0 + 2j * pi / (3 * w0))) < mpf(2) ** -215
        want_p2 = (pi ** 2 / (3 * w0) + 1 / z0 ** 2 - 2j * pi / (3 * z0 * w0)
                   - 2 * pi ** 2 / (3 * w0 ** 2))
        assert abs(pair.p[2] / p0 - want_p2) < mpf(2) ** -215


def test_local_series_amplitude_coefficients():
    s, z0, w0 = _zw()
    pair = local_series(s, None, 12, PREC)
    with mp.workprec(300):
        q0, q1, q2 = pair.q[:3]
        assert abs(q0 ** 2 - 1j * z0 / w0) < mpf(2) ** -220
        assert abs(q1 / q0 - (-1j * pi + 1 / (2 * z0) + 1j * pi / w0)) < mpf(2) ** -215
        want_q2 = (-pi ** 2 / 2 - 1j * pi / (2 * z0) + 2 * pi ** 2 / w0
                   - mpf(1) / (8 * z0 ** 2) + 1j * pi / (2 * z0 * w0)
                   - 3 * pi ** 2 / (2 * w0 ** 2))
        assert abs(q2 / q0 - want_q2) < mpf(2) ** -215


# -- descent coefficients ------------------------------------------------------------------

def test_a0_closed_form():
    s, z0, w0 = _zw()
    pair = local_series(s, None, 12, PREC)
    with mp.workprec(300):
        a0 = wojdylo_a2s(pair, 0, PREC).value
        assert abs(a0 - 1j * z0 / (2 * mpmath.sqrt(pi) * mpmath.exp(1j * pi * z0))) < mpf(2) ** -215


def test_a2_closed_form_on_synthetic_series(rng):
    # a2 = pref (q2/p0 - 3/2 (p1 q1 + p2 q0)/p0^2 + 15/8 p1^2 q0 / p0^3)
    with mp.workprec(280):
        for _ in range(5):
            pc = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
            qc = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
            if abs(pc[0]) < 0.3:
                pc[0] += 1
            omega = mpc(rng.uniform(0.5, 2), rng.uniform(0, 1))
            pair = LocalSeriesPair(tuple(pc), tuple(qc), None, HPComplex(omega, 256))
            root = mpmath.sqrt(omega ** 2 * pc[0])
            if root.real < 0:
                root = -root
            pref = omega / (2 * root)
            p0, p1, p2 = pc[0], pc[1], pc[2]
            q0, q1, q2 = qc[0], qc[1], qc[2]
            want = pref * (q2 / p0 - mpf(3) / 2 * (p1 * q1 + p2 * q0) / p0 ** 2
                           + mpf(15) / 8 * p1 ** 2 * q0 / p0 ** 3)
            got = wojdylo_a2s(pair, 1, 256).value
            assert abs(got - want) < mpf(2) ** -220 * (1 + abs(want))


# -- weight functions -------------------------------------------------------------------------

def test_u_weight_basics():
    s, z0, w0 = _zw()
    with mp.workprec(300):
        assert u_weight(3, 0, z0, PREC).value == 1
        got = u_weight(1, 1, z0, PREC).value
        want = pi * 1j * z0 / 6 * (12 - mpf(1) / 2 + 1 / w0)
        assert abs(got - want) < mpf(2) ** -220
        # sigma enters linearly at j = 1
        g2 = u_weight(2, 1, z0, PREC).value
        assert abs((g2 - got) - 2j * pi * z0) < mpf(2) ** -220


def test_vstar_collapses_to_u_at_ell_1(rng):
    with mp.workprec(280):
        z = mpc("1.2", "0.25")
        for j in range(4):
            a = vstar_weight(1, j, z, PREC).value
            b = u_weight(1, j, z, PREC).value
            assert abs(a - b) < mpf(2) ** -220 * (1 + abs(b))


def test_vstar_ell_closed_form():
    # v*_{l,1}(z) = (2 pi i z)^l (6l + 11/2 + 1/(1 - e^{2 pi i z}))/12
    s, z0, w0 = _zw()
    with mp.workprec(300):
        for ell in (2, 4):
            got = vstar_weight(ell, 1, z0, PREC).value
            want = (2j * pi * z0) ** ell * (6 * ell + mpf(11) / 2 + 1 / w0) / 12
            assert abs(got - want) < mpf(2) ** -200 * abs(want)


# -- the expansions ----------------------------------------------------------------------------

def test_b0_and_b1_closed_forms():
    s, z0, w0 = _zw()
    e = b_coeffs(1, 2, PREC)
    with mp.workprec(300):
        assert abs(abs(mpc(e.coeffs[0])) - mpf("5.39532")) < mpf("1e-4")
        assert abs(mpc(e.coeffs[0]) - 2 * z0 * mpmath.exp(-1j * pi * z0)) < mpf(2) ** -215
        b1_want = (4 * pi * 1j * z0 ** 2 / mpmath.exp(1j * pi * z0)
                   - w0 / (pi * 1j * mpmath.exp(3j * pi * z0))
                   * ((2j * pi * z0) ** 2 / 12 - 2j * pi * z0 + 1))
        assert abs(mpc(e.coeffs[1]) - b1_want) < mpf(2) ** -200


def test_b_t_is_degree_t_polynomial_in_sigma():
    with mp.workprec(300):
        for t in (1, 2, 3):
            vals = [mpc(b_coeffs(s, t + 1, PREC).coeffs[t]) for s in range(t + 2)]
            # (t+1)-th forward difference must vanish
            diff = vals
            for _ in range(t + 1):
                diff = [b - a for a, b in zip(diff, diff[1:])]
            assert abs(diff[0]) < mpf(2) ** -180 * max(1, abs(vals[-1]))


def test_c_coeffs_closed_forms():
    s, z0, w0 = _zw()
    with mp.workprec(300):
        for ell in (1, 2, 4):
            e = c_coeffs(ell, 2, PREC)
            c0_want = -2 * z0 * mpmath.exp(-1j * pi * z0) * (2j * pi * z0) ** (ell - 1)
            assert abs(mpc(e.coeffs[0]) - c0_want) < mpf(2) ** -200 * abs(c0_want)
            c1_want = (-(ell + 1) * z0 * (2j * pi * z0) ** ell / mpmath.exp(1j * pi * z0)
                       + z0 * w0 * (2j * pi * z0) ** ell / mpmath.exp(3j * pi * z0)
                       * (mpf(1) / 6 - (ell + 1) / (2j * pi * z0)
                          + ell * (ell + 1) / (2j * pi * z0) ** 2))
            assert abs(mpc(e.coeffs[1]) - c1_want) < mpf(2) ** -195 * abs(c1_want)


def test_c1_equals_minus_b1_series():
    b = b_coeffs(1, 4, PREC)
    c = c_coeffs(1, 4, PREC)
    with mp.workprec(300):
        for t in range(4):
            assert abs(mpc(c.coeffs[t]) + mpc(b.coeffs[t])) < mpf("1e-20")


def test_binomial_combination_collapses():
    # b*_{l,t} = -sum_sigma C(l-1,sigma-1)(-1)^{l-sigma} b_t(sigma) vanishes for
    # t <= l-2 and equals c_{l,0} at t = l-1
    with mp.workprec(300):
        for ell in (2, 3, 4):
            c0 = mpc(c_coeffs(ell, 1, PREC).coeffs[0])
            for t in range(ell):
                total = mpc(0)
                for sigma in range(1, ell + 1):
                    total -= (math.comb(ell - 1, sigma - 1) * (-1) ** (ell - sigma)
                              * mpc(b_coeffs(sigma, t + 1, PREC).coeffs[t]))
                if t <= ell - 2:
                    assert abs(total) < mpf("1e-40") * (1 + abs(c0))
                else:
                    assert abs(total - c0) < mpf("1e-40") * abs(c0)


def test_evaluate_expansion_table_rows():
    e = b_coeffs(1, 4, PREC)
    refs = {1: "-33.8689", 2: "-32.5734", 3: "-32.4829", 4: "-32.4681"}
    for m, want in refs.items():
        got = evaluate_expansion(e, 200, m, PREC).value
        assert abs(got - mpf(want)) < mpf("1e-4")
    c4 = c_coeffs(4, 4, PREC)
    got = evaluate_expansion(c4, 800, 4, PREC).value
    assert abs(got / mpf("1.47186e12") - 1) < mpf("1e-5")


def test_evaluate_expansion_guards():
    e = b_coeffs(1, 2, PREC)
    with pytest.raises(ValueError):
        evaluate_expansion(e, 200, 3)
    d = family_leading("D", 0, PREC)
    with pytest.raises(ValueError):
        evaluate_expansion(d, 1001, 1)


def test_family_leading_values_and_negative_control():
    for N, want in ((1000, "1.76776e9"), (1001, "2.10996e9")):
        e = family_leading("D", N % 2, PREC)
        got = evaluate_expansion(e, N, 1, PREC).value
        assert abs(got / mpf(want) - 1) < mpf("1e-5")
    # negative control: the swapped-parity coefficient does not reproduce it
    with mp.workprec(280):
        s, z0, w0 = _zw()
        ev = mpmath.exp(-1j * pi * z0)
        d_swapped = z0 * mpmath.sqrt(2 * ev * (ev - 1))  # odd coefficient
        val = -(mpmath.exp(-mpf(1000) / 2 * mpmath.log(w0)) * d_swapped).real / mpf(1001) ** 2
        assert abs(val / mpf("1.76776e9") - 1) > mpf("0.05")


def test_family_c_envelope_exponent():
    # |evaluate(C, N)| <= const e^{0.0357 N}; windowed-envelope slope of
    # log(|value| N^2) over N in [200, 600] stays within 0.002 of 0.0357
    e = family_leading("C", prec=192)
    with mp.workprec(200):
        xs, ys = [], []
        vals = {N: abs(evaluate_expansion(e, N, 1, 192).value) * N * N
                for N in range(200, 601)}
        for start in range(200, 590, 10):
            window = [vals[N] for N in range(start, start + 11)]
            xs.append(start + 5)
            ys.append(math.log(float(max(window))))
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        assert abs(slope - 0.0357) < 0.002


def test_expansion_json():
    e = family_leading("D", 1, 128)
    js = e.to_json()
    assert js["kind"] == "familyD" and js["parity"] == 1 and js["power"] == 2
    assert js["base"]["A"] == 0 and js["base"]["B"] == -1
    assert len(js["coeffs"]) == 1 and "re" in js["coeffs"][0]


# -- quadrature and the path ---------------------------------------------------------------------

def test_saddle_path_geometry():
    verts = saddle_path(192)
    s, z0, _ = _zw(192)
    with mp.workprec(200):
        assert abs(verts[0] - mpf("1.01")) < mpf(2) ** -190
        assert abs(verts[3] - mpf("1.49")) < mpf(2) ** -190
        v = z0.imag / z0.real
        assert abs(v - mpf("0.216279")) < mpf("1e-6")
        # z0 lies on the middle segment
        c = 1 + 1j * v
        t = z0.real
        assert abs(c * t - z0) < mpf(2) ** -180


def test_path_positivity():
    chk = path_positivity_check(90, 128)
    assert chk["min_rise"].value > 0
    assert abs(chk["saddle_height"].value - mpf("0.068076")) < mpf("1e-6")
    assert chk["vertical_max"].value < mpf("0.06")


def test_a3_matches_a1():
    a3 = a3_quadrature(200, 1, 192).value
    a1 = a1_sum(200, 1, 420).value
    assert abs(a3 - a1) / abs(a1) < mpf("1e-3")


def test_a3_requires_large_n():
    with pytest.raises(ValueError):
        a3_quadrature(100, 1)


# -- error-order sanity ----------------------------------------------------------------------------

def test_error_order_doubling_pairs():
    # the strongest (N, 2N) doubling pair should show the full decay rate
    # m + 2 (phase zeros can depress individual pairs, so take the max)
    with mp.workprec(420):
        w0 = find_zero((0, -1), prec=420).w.value
        pairs = ((200, 400), (300, 600), (400, 800), (500, 1000))
        for sigma in (1, 2):
            e = b_coeffs(sigma, 4, 320)
            a1 = {N: a1_sum(N, sigma, 420).value for pair in pairs for N in pair}
            for m in (1, 2, 3):
                best = -mpf("inf")
                for Na, Nb in pairs:
                    ea = abs(a1[Na] - evaluate_expansion(e, Na, m, 320).value) * abs(w0) ** Na
                    eb = abs(a1[Nb] - evaluate_expansion(e, Nb, m, 320).value) * abs(w0) ** Nb
                    best = max(best, mpmath.log(ea / eb) / mpmath.log(2))
                assert best >= m + 2 - mpf("0.3")


def test_decay_exponent_helper():
    Ns = [100, 200, 400]
    errs = [1e-2, 1e-2 / 8, 1e-2 / 64]
    assert abs(decay_exponent(Ns, errs) - 3) < 1e-9
