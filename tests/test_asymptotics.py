"""Saddle frame, descent kernel, expansions, quadrature."""

import hashlib
import math

import mpmath
import pytest
from mpmath import mp, mpc, mpf, pi

from pfrac import asymptotics, dilog, series
from pfrac.asymptotics import (_a3_node, _a3_nodes, _a3_value, _clenshaw_curtis,
                               _descent_kernel, _descent_values, _frame, a3_quadrature, b_coeffs,
                               c_coeffs, decay_exponent, evaluate_expansion, family_leading,
                               path_positivity_check, saddle_path, u_weight, v_func,
                               vstar_weight)
from pfrac.dilog import ConvergenceError, find_saddle, find_zero, p_d, q_func
from pfrac.precision import tolerance
from pfrac.residues import a1_sum
from pfrac.series import exp, inv, log, mul
from pfrac.sine_products import _g_sweep, em_length

PREC = 256


def _zw(prec=PREC):
    s = find_saddle(1, 0, prec)
    w = find_zero((0, -1), prec=prec).w.value
    return s, s.z.value, w


# -- local series at the saddle ---------------------------------------------------------

def test_local_series_phase_coefficients():
    s, z0, w0 = _zw()
    frame = _frame(12, PREC)
    with mp.workprec(300):
        e0 = mpmath.exp(2j * pi * z0)
        p0 = frame.p[0]
        assert abs(p0 - (-pi * 1j * e0 / (z0 * w0))) < mpf(2) ** -220
        assert abs(frame.p[1] / p0 - (-1 / z0 + 2j * pi / (3 * w0))) < mpf(2) ** -215
        want_p2 = (pi ** 2 / (3 * w0) + 1 / z0 ** 2 - 2j * pi / (3 * z0 * w0)
                   - 2 * pi ** 2 / (3 * w0 ** 2))
        assert abs(frame.p[2] / p0 - want_p2) < mpf(2) ** -215


def test_local_series_amplitude_coefficients():
    s, z0, w0 = _zw()
    frame = _frame(12, PREC)
    with mp.workprec(300):
        q0, q1, q2 = frame.Q[:3]
        assert abs(q0 ** 2 - 1j * z0 / w0) < mpf(2) ** -220
        assert abs(q1 / q0 - (-1j * pi + 1 / (2 * z0) + 1j * pi / w0)) < mpf(2) ** -215
        want_q2 = (-pi ** 2 / 2 - 1j * pi / (2 * z0) + 2 * pi ** 2 / w0
                   - mpf(1) / (8 * z0 ** 2) + 1j * pi / (2 * z0 * w0)
                   - 3 * pi ** 2 / (2 * w0 ** 2))
        assert abs(q2 / q0 - want_q2) < mpf(2) ** -215


def test_frame_cot_series_against_a_termwise_oracle():
    # oracle: cot(pi (z0 + eps)) as the ratio of the Taylor series of cos and
    # sin at p + 64 bits, differentiated termwise; the frame reads every order
    # from one _cot_orders table, up to order 12, the largest that
    # c_coeffs(1, 14) reads (g_7)
    frame = _frame(32, PREC)
    for j in (0, 2, 12):
        n = frame.depth + j
        with mp.workprec(PREC + 64):
            w = pi * frame.z0
            c0, s0 = mpmath.cos(w), mpmath.sin(w)
            f = [pi ** i / mpmath.factorial(i) for i in range(n)]
            cos_c = [(c0, -s0, -c0, s0)[i % 4] * f[i] for i in range(n)]
            sin_c = [(s0, c0, -s0, -c0)[i % 4] * f[i] for i in range(n)]
            cot = mul(cos_c, inv(sin_c, n), n)
            for _ in range(j):
                cot = [i * c / pi for i, c in enumerate(cot)][1:]
            got = frame.cot_series(j)
            assert len(got) == len(cot) == frame.depth
            for g, want in zip(got, cot):
                assert abs(g - want) <= tolerance(PREC) * abs(want), j
    with pytest.raises(ValueError, match="depth margin exhausted"):
        frame.cot_series(len(frame._C) - frame.depth + 1)


def test_frame_reads_one_cot_table_and_no_series_inverse_or_log(monkeypatch):
    # from a cold cache a frame takes one _cot_orders table; the reciprocal
    # and the log of pfrac.series serve only as test oracles
    tables, banned = [], []
    cot_orders = asymptotics._cot_orders
    monkeypatch.setattr(asymptotics, "_cot_orders",
                        lambda *args: tables.append(args) or cot_orders(*args))
    for name in ("inv", "log"):
        spy = (lambda name, real: lambda *args: banned.append(name) or real(*args))(
            name, getattr(series, name))
        monkeypatch.setattr(series, name, spy)
        monkeypatch.setattr(asymptotics, name, spy, raising=False)
    _frame.cache_clear()
    _frame(12, PREC)
    assert len(tables) == 1 and banned == []
    _frame.cache_clear()


# -- descent coefficients ------------------------------------------------------------------

def test_a0_closed_form():
    s, z0, w0 = _zw()
    frame = _frame(12, PREC)
    with mp.workprec(300):
        a0 = _descent_kernel(frame.p, frame.z0, 0)[0][0] * frame.Q[0]
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
            root = mpmath.sqrt(omega ** 2 * pc[0])
            if root.real < 0:
                root = -root
            pref = omega / (2 * root)
            p0, p1, p2 = pc[0], pc[1], pc[2]
            q0, q1, q2 = qc[0], qc[1], qc[2]
            want = pref * (q2 / p0 - mpf(3) / 2 * (p1 * q1 + p2 * q0) / p0 ** 2
                           + mpf(15) / 8 * p1 ** 2 * q0 / p0 ** 3)
            got = sum(qc[2 - i] * k for i, k in enumerate(_descent_kernel(pc, omega, 1)[1]))
            assert abs(got - want) < mpf(2) ** -220 * (1 + abs(want))


def _a2s_lagrange(p, q, omega, s):
    """a_{2s} by Lagrange-Buermann: pref p0^{-s} [eps^{2s}] q(eps) (1 + u(eps)/p0)^{-s-1/2},
    u = sum_{r>=1} p_r eps^r, pref = omega/(2 (omega^2 p0)^{1/2}) with
    Re (omega^2 p0)^{1/2} > 0; the power through series.log and series.exp,
    with no Bell polynomial and no binomial."""
    n = 2 * s + 1
    root = mpmath.sqrt(omega ** 2 * p[0])
    if root.real < 0:
        root = -root
    base = [mpc(1)] + [c / p[0] for c in p[1:n]]
    power = exp([-(s + mpf(1) / 2) * c for c in log(base, n)], n)
    return omega / (2 * root) * p[0] ** -s * mul(q, power, n)[2 * s]


def test_a2s_matches_lagrange_buermann(rng):
    # every a_{2s} from one kernel against the power series of the inverse
    # function: on the saddle frame at z0 with the amplitudes q and q u_{1,1}
    # for every s <= 13, the s that `expansion --m 14` reads, and on
    # synthetic p, q and omega for every s <= 6
    frame = _frame(32, PREC)
    with mp.workprec(280):
        cases = [(frame.p, frame.Q, frame.z0, 13),
                 (frame.p, mul(frame.Q, frame.weights(1, 1, 1)[1], 32), frame.z0, 13)]
        for _ in range(5):
            pc = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(13)]
            qc = [mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(13)]
            if abs(pc[0]) < 0.3:
                pc[0] += 1
            cases.append((pc, qc, mpc(rng.uniform(0.5, 2), rng.uniform(0, 1)), 6))
        for p, q, omega, smax in cases:
            kernel = _descent_kernel(p, omega, smax)
            for s in range(smax + 1):
                got = sum(q[2 * s - i] * k for i, k in enumerate(kernel[s]))
                want = _a2s_lagrange(p, q, omega, s)
                assert abs(got - want) < mpf(2) ** -220 * (1 + abs(want)), s


def test_descent_values_build_one_kernel_and_one_amplitude_per_weight(monkeypatch):
    # from cold caches, the m coefficients of c_coeffs(1, m) take one
    # descent kernel and m amplitudes q w_j, not one of each per (t, s)
    m, kernels, products = 5, [], []
    kernel, product = asymptotics._descent_kernel, asymptotics.mul
    monkeypatch.setattr(asymptotics, "_descent_kernel",
                        lambda *args: kernels.append(args) or kernel(*args))
    monkeypatch.setattr(asymptotics, "mul", lambda a, b, n: products.append(a) or product(a, b, n))
    _descent_values.cache_clear()
    _frame.cache_clear()
    c_coeffs(1, m, PREC)
    assert len(kernels) == 1
    assert sum(a is _frame(2 * m + 4, PREC).Q for a in products) == m
    _descent_values.cache_clear()


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


def test_frame_weights_match_scalar_oracles():
    # the constant terms of the saddle frame's weight series are the scalar
    # weights at z0: u_weight at ell = 1 and vstar_weight, on the Stirling
    # route, at sigma = 1 are the oracles of _Frame.weights
    _, z0, _ = _zw()
    frame = _frame(12, PREC)
    tol = mpf(2) ** (16 - PREC)
    with mp.workprec(PREC + 32):
        for sigma in (1, 2, -3):
            series = frame.weights(sigma, 1, 3)
            for j in range(4):
                want = u_weight(sigma, j, z0, PREC).value
                assert abs(series[j][0] - want) <= tol * max(1, abs(want))
        for ell in (1, 2, 4, 9):
            series = frame.weights(1, ell, 3)
            for j in range(4):
                want = vstar_weight(ell, j, z0, PREC).value
                assert abs(series[j][0] - want) <= tol * max(1, abs(want))


def test_c_coeffs_build_no_stirling_triangle(monkeypatch):
    # from cold caches, the pole-at-1 weights come from one exponential in
    # 1/N, not from Stirling numbers
    calls, stirling2 = [], asymptotics.stirling2
    monkeypatch.setattr(asymptotics, "stirling2",
                        lambda *args: calls.append(args) or stirling2(*args))
    _descent_values.cache_clear()
    _frame.cache_clear()
    c_coeffs(500, 4, 128)
    assert calls == []
    _descent_values.cache_clear()


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


@pytest.mark.parametrize("bad", [2.5, mpf("2.5"), 1 + 2j])
def test_b_and_c_coeffs_refuse_a_non_integer_sigma_or_ell(bad):
    # b_coeffs(2.5, 4) is not b_coeffs(2, 4): sigma and ell are integers
    with pytest.raises(ValueError, match="sigma must be an integer"):
        b_coeffs(bad, 4, PREC)
    with pytest.raises(ValueError, match="ell must be an integer"):
        c_coeffs(bad, 4, PREC)


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


def test_saddle_frame_coefficients_are_pinned_to_the_bit():
    # `pfrac expansion` prints 30 digits of these; the pin holds every bit of
    # the mantissas (about 288), so a change that only moves the rounding of
    # the saddle-frame series (_Frame) shows here
    def bits(e):
        return [tuple((sign, int(man), exp, bc) for sign, man, exp, bc in c._mpc_)
                for c in e.coeffs]
    text = repr([bits(b_coeffs(1, 4, 256)), bits(c_coeffs(4, 4, 256))])
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "ac2018a95eaac1e4b02c403e98f1d019170a9aa3ff2f1059b11fcd0038f44df5")


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
    for N in (0, -3):
        with pytest.raises(ValueError, match="need N >= 1"):
            evaluate_expansion(e, N, 2)


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


def _v_oracle(z, N, sigma, prec):
    """v(z; N, sigma) summed in mpmath at prec bits from the single g_l of
    `_g_sweep`, apart from the one fixed-point sum that v_func and the
    integrand share."""
    with mp.workprec(prec):
        g = _g_sweep(em_length(0.006, N, 1) - 1, mpc(z))
        return 2j * pi * sigma * z / N + mpmath.fsum(gl / mpf(N) ** (2 * ell - 1)
                                                     for ell, gl in enumerate(g, 1))


def test_a3_integrand_matches_its_pieces():
    # the integrand, an N-free _a3_node and its _a3_value at (N, sigma), at
    # p bits against exp(-N p_d) q exp(v) composed at p + 64 from p_d,
    # q_func and a v summed from the single g_l, on all three edges of the
    # path, one node serving every (N, sigma); v_func, which reads the
    # integrand's sum over g_l, is held to that v at p bits: q_func and
    # v_func are the oracles of _a3_node and _a3_value
    p = 192
    verts = saddle_path(p)
    points = []
    for e in range(3):
        for t in ("0.13", "0.5", "0.91"):
            with mp.workprec(p + 16):
                z = verts[e] + (verts[e + 1] - verts[e]) * mpf(t)
            points.append((z, _a3_node(z, p)))
    for N in (131, 200, 449):
        for sigma in (1, 2, -3):
            for z, node in points:
                got = _a3_value(node, N, sigma, p)
                v = _v_oracle(z, N, sigma, p + 64)
                with mp.workprec(p + 64):
                    want = (mpmath.exp(-N * p_d(z, 0, p + 64).value) * q_func(z, p + 64).value
                            * mpmath.exp(v))
                    assert abs(got - want) <= tolerance(p) * abs(want)
                    assert abs(v_func(z, N, sigma, p).value - v) <= tolerance(p) * abs(v)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 40, 80])
def test_clenshaw_curtis_rule(n):
    # the level-2n rule: 2n + 1 nodes cos(j pi/2n), strictly descending and
    # mirrored exactly with their weights, the even j within the rule's
    # precision of the level-n nodes, which the ladder reads for them; the
    # weights are positive, sum to 2 and make the rule exact on x^{2j}
    # through degree 2n
    p = 192
    nodes, weights = _clenshaw_curtis(n, p)
    assert len(nodes) == len(weights) == 2 * n + 1
    assert all(x > y for x, y in zip(nodes, nodes[1:]))
    assert all(x + y == 0 for x, y in zip(nodes, reversed(nodes)))
    assert list(weights) == list(reversed(weights)) and min(weights) > 0
    below = _clenshaw_curtis(n // 2, p)[0] if n % 2 == 0 else ()
    with mp.workprec(p + 64):
        assert abs(mpmath.fsum(weights) - 2) <= tolerance(p)
        for j, x in enumerate(nodes):
            assert abs(x - mpmath.cos(j * pi / (2 * n))) <= tolerance(p)
        for x, y in zip(nodes[::2], below):
            assert abs(x - y) <= tolerance(p)
        for j in range(n + 1):
            moment = mpmath.fsum(w * x ** (2 * j) for x, w in zip(nodes, weights))
            assert abs(moment - mpf(2) / (2 * j + 1)) <= tolerance(p), j
    with pytest.raises(ValueError, match="need n >= 1"):
        _clenshaw_curtis(0, 64)


def test_a3_builds_each_node_once(monkeypatch):
    # the first call builds the 6 * 40 + 1 nodes of level 80 on the path,
    # each once, the 121 of level 40 among them, and a call at another
    # (N, sigma) builds none
    built = []
    node = asymptotics._a3_node
    monkeypatch.setattr(asymptotics, "_a3_node", lambda z, prec: built.append(z) or node(z, prec))
    _a3_nodes.cache_clear()
    a3_quadrature(219, 1, 192)
    assert len(built) == len(set(built)) == 241
    a3_quadrature(249, 2, 192)
    assert len(built) == 241
    _a3_nodes.cache_clear()


def test_a3_takes_each_node_and_value_once_up_the_ladder(monkeypatch):
    # a cheap stand-in integrand i/(z - 1)^2, with its double pole 0.01 off
    # the path's first vertex, climbs to level 160: the 6 * 80 + 1 nodes of
    # levels 40, 80 and 160 are each built once and evaluated once, every
    # even entry of a level read from the level below, and the value is
    # the integral's, i (1/0.01 - 1/0.49), within its label
    built, taken, tops = [], [], []
    node, nodes = asymptotics._a3_node, asymptotics._a3_nodes
    monkeypatch.setattr(asymptotics, "_a3_node", lambda z, prec: built.append(z) or node(z, prec))
    monkeypatch.setattr(asymptotics, "_a3_nodes", lambda n, prec: tops.append(n) or nodes(n, prec))
    monkeypatch.setattr(asymptotics, "_a3_value",
                        lambda node, N, sigma, prec: taken.append(node[0]) or 1j / (node[0] - 1) ** 2)
    _a3_nodes.cache_clear()
    got = a3_quadrature(200, 1, 192)
    assert max(tops) == 80
    assert len(built) == len(set(built)) == len(taken) == len(set(taken)) == 481
    assert set(built) == set(taken)
    with mp.workprec(192 + 16):
        want = 2 / mpf(200) ** mpf("1.5") * (1 / mpf("0.01") - 1 / mpf("0.49"))
        assert abs(got.value - want) <= tolerance(got.precision) * want
    _a3_nodes.cache_clear()


def test_a3_reads_the_next_level_only_when_one_misses(monkeypatch):
    # stand-in tables of two entries, whose odd entry, the one new entry of
    # each level, carries the level's whole sum: level L sums to K_L, with
    # K_40 = r + 40 i and K_{L/2} = K_L (1 - miss(L)).  A level with
    # |K_L - K_{L/2}| > 1e-8 |Im K_L| hands over to the next, the first
    # within it gives Im K_L and the label of |K_L - K_{L/2}|/|Im K_L|, and
    # with none within it ConvergenceError follows level 640 without a
    # further table, also where |K_L - K_{L/2}| <= 1e-8 |K_L|
    built = []

    def ladder(miss, r=0):
        K = {40: mpc(r, 40)}
        for L in (80, 160, 320, 640):
            K[L] = K[L // 2] / (1 - miss(L))

        def table(n, prec):
            built.append(2 * n)
            return ((mpf(0), mpc(0)), (mpf(1), K[2 * n]))
        return K, table
    monkeypatch.setattr(asymptotics, "_a3_value", lambda node, N, sigma, prec: node)
    K, table = ladder(lambda L: mpf("1e-9") if L == 80 else mpf("0.5"))
    monkeypatch.setattr(asymptotics, "_a3_nodes", table)
    got = a3_quadrature(200, 1, 192)
    assert built == [40, 80]
    with mp.workprec(192 + 16):
        assert got.value == 2 / mpf(200) ** mpf("1.5") * K[80].imag
        assert got.precision == 16 + int(mpmath.floor(-mpmath.log(mpf("1e-9"), 2))) == 45
    for miss, r in ((mpf("1e-7"), 0), (mpf("1e-10"), 10 ** 5)):
        built.clear()
        monkeypatch.setattr(asymptotics, "_a3_nodes", ladder(lambda L: miss, r)[1])
        with pytest.raises(ConvergenceError):
            a3_quadrature(200, 1, 192)
        assert built == [40, 80, 160, 320, 640]


@pytest.fixture(scope="module")
def a3_200():
    return a3_quadrature(200, 1, 192)


def test_a3_matches_a1(a3_200):
    a3 = a3_200.value
    a1 = a1_sum(200, 1, 420).value
    assert abs(a3 - a1) / abs(a1) < mpf("1e-3")


def test_a3_label_holds_against_tanh_sinh(a3_200):
    # the pair stops at a relative 1e-8, so the label is far below 192 bits
    # and at least 42; an independent rule on the same integrand, composed
    # from the oracles q_func and v_func instead of _a3_node and _a3_value,
    # confirms it relative to the value, also at N = 1000, where the value
    # is some 10^25 times larger than at N = 200.  The reference integrand
    # is scaled by its size at the saddle, since mpmath.quad stops on an
    # absolute error estimate
    p = 64
    for N, got in ((200, a3_200), (1000, a3_quadrature(1000, 1, 192))):
        with mp.workprec(p):
            def integrand(z):
                return (mpmath.exp(-N * p_d(z, 0, p).value) * q_func(z, p).value
                        * mpmath.exp(v_func(z, N, 1, p).value))
            scale = abs(integrand(find_saddle(1, 0, p).z.value))
            ref = (2 * scale / mpf(N) ** mpf("1.5")
                   * mpmath.quad(lambda z: integrand(z) / scale, saddle_path(p)).imag)
        assert 42 <= got.precision < 64
        assert abs(got.value - ref) <= tolerance(got.precision) * abs(ref), N


# (N, sigma) -> (mantissa, exponent, label) of a3_quadrature at 192 bits
A3_PINNED = {(219, 1): (4751852776474648889390222110678704875850893932084253225166853, -195, 54),
             (216, 2): (116142732842940881421091257615574737784019188804429554383090667, -200, 54)}


def _a3_digits(N, sigma, prec):
    got = a3_quadrature(N, sigma, prec)
    return got.value.man, got.value.exp, got.precision


def test_a3_node_table_is_built_once_for_every_n_and_sigma(monkeypatch):
    # the first call builds the N- and sigma-free tables, at least one Li2
    # per node of the 241 of level 80 on the path; a call at another
    # (N, sigma) reads the tables and takes no Li2 at all, and both values
    # are the pinned digits
    calls = []
    li2 = dilog._li2_any

    def counted(z):
        calls.append(z)
        return li2(z)
    monkeypatch.setattr(dilog, "_li2_any", counted)
    _a3_nodes.cache_clear()
    assert _a3_digits(219, 1, 192) == A3_PINNED[219, 1]
    built = len(calls)
    assert built >= 241
    assert _a3_digits(216, 2, 192) == A3_PINNED[216, 2]
    assert len(calls) == built


def test_a3_does_not_read_the_ambient_precision():
    # the table built under one ambient mp.prec and read under another, and
    # a table built under the second, give the same digits
    _a3_nodes.cache_clear()
    with mp.workprec(20):
        low = _a3_digits(219, 1, 64)
    with mp.workprec(400):
        reread = _a3_digits(219, 1, 64)
        _a3_nodes.cache_clear()
        high = _a3_digits(219, 1, 64)
    assert low == reread == high


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
        # sigma inside N: the pole inverses a1_sum caches for one N serve both
        a1 = {(N, sigma): a1_sum(N, sigma, 420).value
              for pair in pairs for N in pair for sigma in (1, 2)}
        for sigma in (1, 2):
            e = b_coeffs(sigma, 4, 320)
            for m in (1, 2, 3):
                best = -mpf("inf")
                for Na, Nb in pairs:
                    ea = abs(a1[Na, sigma] - evaluate_expansion(e, Na, m, 320).value) * abs(w0) ** Na
                    eb = abs(a1[Nb, sigma] - evaluate_expansion(e, Nb, m, 320).value) * abs(w0) ** Nb
                    best = max(best, mpmath.log(ea / eb) / mpmath.log(2))
                assert best >= m + 2 - mpf("0.3")


def test_decay_exponent_helper():
    Ns = [100, 200, 400]
    errs = [1e-2, 1e-2 / 8, 1e-2 / 64]
    assert abs(decay_exponent(Ns, errs) - 3) < 1e-9
    # a slope needs two distinct N, one error per N and no zero error
    for Ns, errs in (([200], [1e-3]), ([200, 200], [1e-3, 1e-4]), ([200, 300], [0, 1e-3]),
                     ([200, 300], [mpf(0), 1e-3]), ([200, 300], [1e-3])):
        with pytest.raises(ValueError):
            decay_exponent(Ns, errs)
