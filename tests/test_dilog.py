"""Dilogarithm, Clausen's integral, continued branches, zeros, saddles.

The principal branch is the kernel `_li2_any`, which the phase p_d, the zero
solver and the saddle frame all call; `_li2` below runs it with the guard
bits a public caller adds."""

import mpmath
import pytest
from mpmath import mp, mpc, mpf, pi

from pfrac.dilog import (_li2_any, _li2_branch, _li2_series, _phase, clausen, find_saddle,
                         find_zero, p_d, q_func)
from pfrac.precision import set_default_precision, tolerance
from pfrac.refdata import DILOG_ZEROS

PREC = 256


def _li2(z, prec=PREC):
    """Principal Li2(z) from the kernel, at prec + 24 bits."""
    with mp.workprec(prec + 24):
        return _li2_any(mpc(z))


def _p_d_prime(z, d, prec=PREC):
    """p_d'(z) from the phase kernel that find_saddle certifies with."""
    return _phase(z, d, 1, prec)[1]


def _r(z, prec=PREC):
    """r(z) = Li2(e^{2 pi i z}) / (2 pi i z) + 13 pi i / (12 z), from the kernel."""
    with mp.workprec(prec + 24):
        z = mpc(z)
        return _li2_any(mpmath.exp(2j * pi * z)) / (2j * pi * z) + 13 * pi * 1j / (12 * z)


def test_li2_special_points():
    with mp.workprec(300):
        assert abs(_li2(1) - pi ** 2 / 6) < mpf(2) ** -240
        assert _li2(0) == 0


def test_li2_half_by_series_oracle():
    # direct power-series summation is the independent oracle at z = 1/2
    with mp.workprec(300):
        direct = mpmath.fsum(mpf(2) ** -n / n ** 2 for n in range(1, 140))
        ours = _li2(mpf(1) / 2)
        assert abs(ours - direct) < mpf("1e-30")
        closed = pi ** 2 / 12 - mpmath.log(2) ** 2 / 2
        assert abs(ours - closed) < mpf("1e-30")


def test_li2_against_mpmath_grid(rng):
    with mp.workprec(300):
        for _ in range(40):
            z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z.imag) < 1e-3 and z.real > 1:
                continue
            assert abs(_li2(z) - mpmath.polylog(2, z)) < mpf(2) ** -230
        # hard annulus points, including near the sixth root of unity
        for z in (mpmath.exp(1j * pi / 3), mpc("0.6", "0.75"), mpc("-1.2", "0.1")):
            assert abs(_li2(z) - mpmath.polylog(2, z)) < mpf(2) ** -230
    # the kernel at p bits against mpmath.polylog at p + 64, on the unit
    # circle and across the annulus out to its bound |log z| near
    # sqrt(log^2 2 + pi^2), where the log-series converges slowest
    with mp.workprec(600):
        points = [mpmath.expjpi(mpf(t) / 8) for t in range(1, 16, 2)] + [mpc(-1)]
        points += [r * mpmath.expjpi(mpf(t) / 7) for r in (mpf("0.51"), mpf("1.9"))
                   for t in (-6, -3, 3, 6)]
        points += [mpc("0.6", "0.75"), mpc("-0.5001", "1e-9"), mpc("-1.999", "-1e-9")]
    for p in (64, 256, 512):
        for z in points:
            with mp.workprec(p):
                z = mpc(z)
                got = _li2_any(z)
            with mp.workprec(p + 64):
                want = mpmath.polylog(2, z)
                assert abs(got - want) <= tolerance(p) * abs(want)


def test_li2_series_meets_precision_contract():
    # the integer power series at p bits against mpmath.polylog at p + 64, on
    # |z| = 1/2 in all four quadrants and on the axes, and near 0
    with mp.workprec(600):
        points = [mpmath.expjpi(mpf(t) / 8) / 2 for t in range(0, 16, 3)]
        points += [mpc("1e-3", "-2e-3"), mpc("-3e-12", "1e-12"), mpc(2) ** -200 * mpc(-1, -3)]
    for p in (64, 256, 512):
        for z in points:
            with mp.workprec(p):
                z = mpc(z)
                got = _li2_series(z)
            with mp.workprec(p + 64):
                want = mpmath.polylog(2, z)
                assert abs(got - want) <= tolerance(p) * abs(want)


def test_li2_cut_is_limit_from_above():
    with mp.workprec(400):
        for x in ("1.5", "2.0", "3.5"):
            ours = _li2(mpf(x))
            lim = mpmath.polylog(2, mpc(mpf(x), mpf(10) ** -70))
            assert abs(ours - lim) < mpf("1e-55")


def test_clausen_values():
    with mp.workprec(300):
        assert abs(clausen(pi / 3, PREC).value - mpf("1.0149416")) < mpf("1e-7")
        assert clausen(0, PREC).value == 0
        assert abs(clausen(pi, PREC).value) < mpf(2) ** -240
        # against the mpmath series oracle
        for th in ("0.3", "1.0", "2.2", "3.0"):
            assert abs(clausen(mpf(th), PREC).value - mpmath.clsin(2, mpf(th))) < mpf(2) ** -230


def test_clausen_odd_periodic(rng):
    with mp.workprec(280):
        for _ in range(15):
            th = mpf(rng.uniform(-10, 10))
            tol = mpf(2) ** (16 - PREC)
            assert abs(clausen(th, PREC).value + clausen(-th, PREC).value) < tol
            assert abs(clausen(th + 2 * pi, PREC).value - clausen(th, PREC).value) < tol


def test_clausen_ratio_stationary_point():
    # d/dx (Cl2(2 pi x)/(2 pi x)) vanishes near x0 ~ 0.791227
    with mp.workprec(200):
        def deriv(x):
            # Cl2'(2 pi x) = -log|2 sin(pi x)|
            cl = clausen(2 * pi * x, 192).value
            return (-mpmath.log(abs(2 * mpmath.sin(pi * x)))) / x - cl / (2 * pi * x ** 2)
        lo, hi = mpf("0.78"), mpf("0.80")
        assert deriv(lo) < 0 < deriv(hi)
        for _ in range(60):
            mid = (lo + hi) / 2
            if deriv(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs((lo + hi) / 2 - mpf("0.791227")) < mpf("1e-6")


def test_li2_continued():
    # the continued dilogarithm that find_zero's Newton steps run on
    with mp.workprec(PREC + 24):
        z = mpc("0.3", "0.4")
        assert _li2_branch(z, 0, 0) == _li2_any(z)
        for A, B in ((0, -1), (1, -2)):
            w = find_zero((A, B), prec=PREC).w.value
            assert abs(_li2_branch(w, A, B)) < mpf("1e-20")


def test_find_zero_reference_values():
    for (A, B), (re, im) in DILOG_ZEROS.items():
        z = find_zero((A, B), prec=PREC)
        assert abs(z.w.value - mpc(mpf(str(re)), mpf(str(im)))) < mpf("1e-9")
        assert z.residual.value < mpf("1e-20")


def test_find_zero_cache_follows_the_default_precision():
    # the cache is keyed on the resolved precision, so prec=None cannot go stale
    find_zero((0, -1))
    old = set_default_precision(320)
    try:
        assert find_zero((0, -1)).w.precision == 320
    finally:
        set_default_precision(old)
    assert find_zero((0, -1)).w.precision == old


def test_find_zero_rejects_inadmissible():
    for label in ((0, 0), (2, -3), (-1, 2), (5, 3)):
        with pytest.raises(ValueError):
            find_zero(label)
    # a branch index is an integer: (0, 0.5) names no branch at all
    for label, name in (((0, 0.5), "B"), ((mpf(1), 3), "A")):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            find_zero(label)


def test_zero_conjugation_all_b_up_to_8():
    with mp.workprec(260):
        for B in range(1, 9):
            for A in range(-B, B + 1):
                if not (-B / 2 < A <= B / 2):
                    continue
                zp = find_zero((A, B), prec=192).w.value
                zm = find_zero((A, -B), prec=192).w.value
                assert abs(zm - mpmath.conj(zp)) < mpf(2) ** -170


def test_inversion_functional_equation_on_strips():
    # Li2(e^{-2 pi i z}) = -Li2(e^{2 pi i z}) + 2 pi^2 (z^2-(2m+1)z+m^2+m+1/6)
    with mp.workprec(300):
        tol = mpf(2) ** (24 - PREC)
        for m in (-1, 0, 1):
            for i in range(10):
                for j in range(10):
                    z = mpc(m + (i + mpf("0.5")) / 10, -1 + (2 * j + mpf(1)) / 10)
                    lhs = _li2(mpmath.exp(-2j * pi * z))
                    rhs = (-_li2(mpmath.exp(2j * pi * z))
                           + 2 * pi ** 2 * (z ** 2 - (2 * m + 1) * z + m * m + m + mpf(1) / 6))
                    assert abs(lhs - rhs) < tol


def test_reflection_functional_equation_on_strips():
    # Li2(e^{2 pi i z}) = -Li2(1-e^{2 pi i z}) + zeta(2) - 2 pi i (z-m) log(1-e^{2 pi i z})
    with mp.workprec(300):
        tol = mpf(2) ** (24 - PREC)
        for m in (-1, 0, 1):
            for i in range(10):
                for j in range(10):
                    z = mpc(m - mpf("0.45") + (i * mpf("0.9") + mpf("0.45")) / 10,
                            -1 + (2 * j + mpf(1)) / 10)
                    if z.imag <= 0 and abs(z.real - m) < mpf("0.05"):
                        continue  # too close to the cut
                    e = mpmath.exp(2j * pi * z)
                    lhs = _li2(e)
                    rhs = (-_li2(1 - e) + pi ** 2 / 6
                           - 2j * pi * (z - m) * mpmath.log(1 - e))
                    assert abs(lhs - rhs) < tol


def test_im_li2_monotone_in_y():
    # Im Li2(e^{2 pi i z}) strictly decreasing in y for fixed x in (0, 1/2)
    with mp.workprec(200):
        for xi in range(1, 8):
            x = mpf(xi) / 16
            prev = None
            for yi in range(12):
                y = mpf(yi) / 8
                val = _li2(mpmath.exp(2j * pi * mpc(x, y)), 192).imag
                if prev is not None:
                    assert val < prev
                prev = val


def test_p_d_at_saddle():
    s = find_saddle(1, 0, PREC)
    w0 = find_zero((0, -1), prec=PREC).w.value
    with mp.workprec(300):
        pv = p_d(s.z.value, 0, PREC).value
        assert abs(pv - mpmath.log(w0)) < mpf(2) ** -230
        assert abs((-pv).real - mpf("0.068076")) < mpf("1e-6")
        assert abs(_p_d_prime(s.z.value, 0)) < mpf("1e-12")


def test_p_d_prime_by_central_difference():
    # the order-1 branch of the phase kernel (find_saddle's certificate)
    # against a central difference of p_d, on three branches d
    with mp.workprec(360):
        z = mpc("1.2", "0.3")
        h = mpf(10) ** -25
        for d in (0, 1, -2):
            num = (p_d(z + h, d, 320).value - p_d(z - h, d, 320).value) / (2 * h)
            assert abs(num - _p_d_prime(z, d, 320)) < mpf("1e-40")


def test_p_d_cut_rejection():
    with pytest.raises(ValueError):
        p_d(mpc(1, -0.5), 0)
    with pytest.raises(ValueError):
        _p_d_prime(mpc(2, 0), 0)


def test_find_saddle_examples():
    s0 = find_saddle(1, 0, PREC)
    assert abs(s0.z.value.real - mpf("1.181")) < mpf("5e-4")
    assert abs(s0.z.value.imag - mpf("0.255")) < mpf("6e-4")
    with mp.workprec(300):
        for (m, d) in ((2, 0), (3, 1)):
            s = find_saddle(m, d, PREC)
            w = find_zero((d, -m), prec=PREC).w.value
            assert abs(s.z.value - (m + mpmath.log(1 - w) / (2j * pi))) < mpf(2) ** -230
            cert = mpf(10) ** (-mpf("0.3") * PREC)
            assert abs(_p_d_prime(s.z.value, d)) < cert
            assert abs(s.pValue.value - mpmath.log(w)) < cert
    with pytest.raises(ValueError):
        find_saddle(0, 0)
    with pytest.raises(ValueError):
        find_saddle(4, 3)


def test_r_on_real_axis_matches_clausen_form():
    # Li2 on the unit circle: Im is Clausen's integral, Re a Bernoulli polynomial
    with mp.workprec(300):
        for xi in (mpf("1.05"), mpf("1.25"), mpf("1.45")):
            r = _r(xi)
            want = clausen(2 * pi * xi, PREC).value / (2 * pi * xi) + 1j * pi / 2 * (3 - xi)
            assert abs(r - want) < mpf(2) ** -230


def test_p_equals_minus_r_plus_pi_i_over_z(rng):
    with mp.workprec(300):
        for _ in range(20):
            z = mpc(1 + rng.uniform(0.01, 0.49), rng.uniform(-0.8, 0.8))
            if z.imag <= 0 and min(abs(z.real - 1), abs(z.real - 2)) < 0.02:
                continue
            lhs = p_d(z, 0, PREC).value
            rhs = -(_r(z) - 1j * pi / z)
            assert abs(lhs - rhs) < mpf(2) ** -220


def test_q_modulus_at_saddle():
    s = find_saddle(1, 0, PREC)
    w0 = find_zero((0, -1), prec=PREC).w.value
    with mp.workprec(300):
        q = q_func(s.z.value, PREC).value
        assert abs(abs(q) ** 2 - abs(1j * s.z.value / w0)) < mpf(2) ** -230



@pytest.mark.parametrize("z", [1, 2, -3, mpf(2), 2.0, mpc(5, 0)])
def test_q_refuses_a_pole_at_an_integer(z):
    # 2 sin(pi (z - 1)) vanishes at every integer; off z = 0 that is a pole
    with pytest.raises(ValueError, match="pole at integer z"):
        q_func(z, PREC)


def test_q_takes_its_limit_at_zero():
    # z / (2 sin(pi (z - 1))) -> -1/(2 pi) at z = 0, where the quotient is 0/0
    with mp.workprec(300):
        want = 1j / mpmath.sqrt(2 * pi)
        assert abs(q_func(0, PREC).value - want) < mpf(2) ** -240
        for z in (mpf(10) ** -20, -mpf(10) ** -20):
            assert abs(q_func(z, PREC).value - want) < mpf(10) ** -19
