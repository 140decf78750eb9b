"""Hot numerical kernels: packed mass-action right-hand side and an embedded
Dormand-Prince 5(4) step loop with PI step-size control and quartic dense
output.

The kernels never touch network objects. :func:`kinvar.network.pack_network`
flattens a network into a tuple of terms ``(k, factors, changes)``, one per
reaction direction with a positive rate constant: the term's rate is ``k``
times the product of ``c[i]`` over ``factors``, which lists each rate-law
species once per unit of its power, and each ``(i, coeff)`` in ``changes``
adds ``coeff * rate`` to ``dc[i]/dt``.

The step loop holds the state, the seven stages and the tableau as lists of
Python floats. The systems here are small (2-40 species), so indexing numpy
arrays element by element would box every read as a numpy scalar at several
times the cost of a float operation, and whole-array numpy operations would
pay their per-call overhead on two or three entries. Python floats are IEEE
doubles like float64, and every sum and product below runs in a fixed
order, so the trajectories are bit-identical to the same loops run over
numpy arrays.
"""

from __future__ import annotations

import numpy as np

_EPS = 2.220446049250313e-16


# Dormand-Prince RK5(4) tableau; the right-hand side is autonomous, so the
# nodes c_s are not needed. A[s - 1] holds the weights of stages 0..s-1 in
# stage s.
# E is the difference between the 5th- and 4th-order weights; P holds the
# coefficients of the quartic interpolant b_i(theta) = sum_d P[i][d]
# theta^(d+1), which matches the 5th-order result at theta = 1 and satisfies
# the order-4 continuous-extension conditions.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_NEGATIVE = 2


def rhs_packed(c, terms, n):
    """dc/dt as a list, for concentrations ``c`` and packed ``terms``."""
    out = [0.0] * n
    for k, factors, changes in terms:
        rate = k
        for i in factors:
            rate *= c[i]
        if rate != 0.0:
            for i, co in changes:
                out[i] += co * rate
    return out


def integrate_dp54(terms, c0, times, rtol, atol):
    """Integrate from times[0] = 0 to times[-1], filling every grid row.

    Returns ``(status, t_fail, out, stats)``. Status 0 is success; 1 is
    step-size underflow and 2 a concentration below -10*atol, both reported
    with the time at which they occurred; rows past the failure point are
    NaN. ``stats`` is ``(accepted, rejected, rhs_evals, h_min, h_max)`` over
    the steps taken, with ``h_min = inf`` and ``h_max = 0`` when none was
    accepted.
    """
    times = times.tolist()
    y = c0.tolist()
    n = len(y)
    m = len(times)
    rows = [y]
    accepted = rejected = evals = 0
    h_min, h_max = float("inf"), 0.0
    if m == 1:
        return STATUS_OK, 0.0, np.array(rows), (0, 0, 0, h_min, h_max)
    t_end = times[m - 1]

    f0 = rhs_packed(y, terms, n)
    evals += 1

    # starting step: scaled magnitudes of y and f, refined by an Euler probe
    d0 = 0.0
    d1 = 0.0
    for yi, fi in zip(y, f0):
        sc = atol + rtol * abs(yi)
        d0 += (yi / sc) ** 2
        d1 += (fi / sc) ** 2
    d0 = (d0 / n) ** 0.5
    d1 = (d1 / n) ** 0.5
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    if h0 > t_end:
        h0 = t_end
    if not h0 > 0.0:
        # an overflowing rate leaves no usable starting step
        rows.extend([float("nan")] * n for _ in range(m - 1))
        return STATUS_STEP_UNDERFLOW, 0.0, np.array(rows), (0, 0, evals, h_min, h_max)
    f1 = rhs_packed([yi + h0 * fi for yi, fi in zip(y, f0)], terms, n)
    evals += 1
    d2 = 0.0
    for yi, fi, gi in zip(y, f0, f1):
        sc = atol + rtol * abs(yi)
        d2 += ((gi - fi) / sc) ** 2
    d2 = (d2 / n) ** 0.5 / h0
    dm = d1 if d1 > d2 else d2
    if dm <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** 0.2
    h = min(100.0 * h0, h1)
    if h > t_end:
        h = t_end

    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), \
        (a50, a51, a52, a53, a54), (a60, a61, a62, a63, a64, a65) = _A
    e0, e1, e2, e3, e4, e5, e6 = _E
    k0 = f0
    floor = -10.0 * atol
    t = 0.0
    next_out = 1
    facold = 1e-4
    last_rejected = False
    status = STATUS_OK

    while next_out < m:
        if t + h > t_end:
            h = t_end - t
        if h < 16.0 * _EPS * max(abs(t), 1e-8) or h <= 0.0:
            status = STATUS_STEP_UNDERFLOW
            break

        # stage sums, each accumulated from 0.0 in tableau order
        k1 = rhs_packed([yi + h * (0.0 + a10 * x0) for yi, x0 in zip(y, k0)],
                        terms, n)
        k2 = rhs_packed([yi + h * (0.0 + a20 * x0 + a21 * x1)
                         for yi, x0, x1 in zip(y, k0, k1)], terms, n)
        k3 = rhs_packed([yi + h * (0.0 + a30 * x0 + a31 * x1 + a32 * x2)
                         for yi, x0, x1, x2 in zip(y, k0, k1, k2)], terms, n)
        k4 = rhs_packed([yi + h * (0.0 + a40 * x0 + a41 * x1 + a42 * x2 + a43 * x3)
                         for yi, x0, x1, x2, x3 in zip(y, k0, k1, k2, k3)], terms, n)
        k5 = rhs_packed([yi + h * (0.0 + a50 * x0 + a51 * x1 + a52 * x2 + a53 * x3
                                   + a54 * x4)
                         for yi, x0, x1, x2, x3, x4 in zip(y, k0, k1, k2, k3, k4)],
                        terms, n)
        ynew = [yi + h * (0.0 + a60 * x0 + a61 * x1 + a62 * x2 + a63 * x3 + a64 * x4
                          + a65 * x5)
                for yi, x0, x1, x2, x3, x4, x5 in zip(y, k0, k1, k2, k3, k4, k5)]
        k6 = rhs_packed(ynew, terms, n)
        evals += 6
        K = (k0, k1, k2, k3, k4, k5, k6)

        err = 0.0
        for yi, yn, x0, x1, x2, x3, x4, x5, x6 in zip(y, ynew, *K):
            e = (0.0 + e0 * x0 + e1 * x1 + e2 * x2 + e3 * x3 + e4 * x4 + e5 * x5
                 + e6 * x6) * h
            ymag = abs(yi)
            if abs(yn) > ymag:
                ymag = abs(yn)
            sc = atol + rtol * ymag
            err += (e / sc) ** 2
        err = (err / n) ** 0.5

        if err > 1.0:
            fac11 = err ** 0.17
            shrink = 0.9 / fac11
            if shrink < 0.2:
                shrink = 0.2
            h *= shrink
            last_rejected = True
            rejected += 1
            continue

        t_new = t + h
        if any(yn < floor for yn in ynew):
            status, t = STATUS_NEGATIVE, t_new
            break
        accepted += 1
        if h < h_min:
            h_min = h
        if h > h_max:
            h_max = h

        slack = 1e-13 * max(1.0, abs(t_new))
        while next_out < m and times[next_out] <= t_new + slack:
            theta = (times[next_out] - t) / h
            if theta >= 1.0 - 1e-12:
                rows.append(ynew)
            else:
                b0, b1, b2, b3, b4, b5, b6 = [
                    theta * (p0 + theta * (p1 + theta * (p2 + theta * p3)))
                    for p0, p1, p2, p3 in _P]
                rows.append([yi + h * (0.0 + b0 * x0 + b1 * x1 + b2 * x2 + b3 * x3
                                       + b4 * x4 + b5 * x5 + b6 * x6)
                             for yi, x0, x1, x2, x3, x4, x5, x6 in zip(y, *K)])
            next_out += 1

        # PI controller (Hairer's DOPRI5 coefficients)
        if err == 0.0:
            factor = 5.0
        else:
            factor = 0.9 * facold ** 0.04 / err ** 0.17
            if factor > 5.0:
                factor = 5.0
            elif factor < 0.2:
                factor = 0.2
        if last_rejected and factor > 1.0:
            factor = 1.0
        facold = err if err > 1e-4 else 1e-4
        last_rejected = False

        t = t_new
        y = ynew
        k0 = k6  # first-same-as-last
        h *= factor

    rows.extend([float("nan")] * n for _ in range(m - len(rows)))
    return status, t, np.array(rows), (accepted, rejected, evals, h_min, h_max)
