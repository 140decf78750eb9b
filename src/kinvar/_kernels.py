"""Hot numerical kernels: packed mass-action right-hand side and an embedded
Dormand-Prince 5(4) step loop with PI step-size control and quartic dense
output.

The kernels are plain Python/numpy loops over flat arrays, so they never
touch network objects:

- ``term_*``   one entry per reaction direction with a positive rate constant;
  ``term_sp``/``term_pw`` list the rate-law species and their integer powers
  in the CSR slice ``term_ptr[r]:term_ptr[r+1]``.
- ``chg_*``    species increments per unit rate for the same term, in the CSR
  slice ``chg_ptr[r]:chg_ptr[r+1]``.
"""

from __future__ import annotations

import numpy as np

_EPS = 2.220446049250313e-16


# Dormand-Prince RK5(4) tableau. E is the difference between the 5th- and
# 4th-order weights; P holds the coefficients of the quartic interpolant
# b_i(theta) = sum_d P[i, d] theta^(d+1), which matches the 5th-order result
# at theta = 1 and satisfies the order-4 continuous-extension conditions.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.zeros((7, 7))
_A[1, 0] = 1 / 5
_A[2, :2] = [3 / 40, 9 / 40]
_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_A[6, :6] = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
_E = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40
])
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_NEGATIVE = 2


def rhs_packed(c, term_k, term_ptr, term_sp, term_pw,
               chg_ptr, chg_sp, chg_co, out):
    """dc/dt for a packed mass-action network, written into ``out``."""
    for i in range(out.shape[0]):
        out[i] = 0.0
    for r in range(term_k.shape[0]):
        rate = term_k[r]
        for j in range(term_ptr[r], term_ptr[r + 1]):
            ci = c[term_sp[j]]
            for _ in range(term_pw[j]):
                rate *= ci
        if rate != 0.0:
            for j in range(chg_ptr[r], chg_ptr[r + 1]):
                out[chg_sp[j]] += chg_co[j] * rate


def integrate_dp54(term_k, term_ptr, term_sp, term_pw,
                   chg_ptr, chg_sp, chg_co,
                   c0, times, rtol, atol, max_step, dense):
    """Integrate from times[0] = 0 to times[-1], filling every grid row.

    Returns (status, t_fail, out). Status 0 is success; 1 is step-size
    underflow and 2 a concentration below -10*atol, both reported with the
    time at which they occurred. Rows past the failure point are left as
    filled (untouched rows contain NaN).
    """
    n = c0.shape[0]
    m = times.shape[0]
    out = np.full((m, n), np.nan)
    for i in range(n):
        out[0, i] = c0[i]
    if m == 1:
        return STATUS_OK, 0.0, out
    t_end = times[m - 1]

    y = c0.copy()
    K = np.empty((7, n))
    rhs_packed(y, term_k, term_ptr, term_sp, term_pw,
               chg_ptr, chg_sp, chg_co, K[0])

    # starting step: scaled magnitudes of y and f, refined by an Euler probe
    d0 = 0.0
    d1 = 0.0
    for i in range(n):
        sc = atol + rtol * abs(y[i])
        d0 += (y[i] / sc) ** 2
        d1 += (K[0, i] / sc) ** 2
    d0 = (d0 / n) ** 0.5
    d1 = (d1 / n) ** 0.5
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    if h0 > t_end:
        h0 = t_end
    ytmp = np.empty(n)
    for i in range(n):
        ytmp[i] = y[i] + h0 * K[0, i]
    f1 = np.empty(n)
    rhs_packed(ytmp, term_k, term_ptr, term_sp, term_pw,
               chg_ptr, chg_sp, chg_co, f1)
    d2 = 0.0
    for i in range(n):
        sc = atol + rtol * abs(y[i])
        d2 += ((f1[i] - K[0, i]) / sc) ** 2
    d2 = (d2 / n) ** 0.5 / h0
    dm = d1 if d1 > d2 else d2
    if dm <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** 0.2
    h = min(100.0 * h0, h1)
    if h > max_step:
        h = max_step
    if h > t_end:
        h = t_end

    ynew = np.empty(n)
    t = 0.0
    next_out = 1
    facold = 1e-4
    last_rejected = False

    while next_out < m:
        if t + h > t_end:
            h = t_end - t
        if not dense and times[next_out] < t + h:
            h = times[next_out] - t
        if h < 16.0 * _EPS * max(abs(t), 1e-8) or h <= 0.0:
            return STATUS_STEP_UNDERFLOW, t, out

        for s in range(1, 7):
            for i in range(n):
                acc = 0.0
                for q in range(s):
                    acc += _A[s, q] * K[q, i]
                ytmp[i] = y[i] + h * acc
            if s == 6:
                for i in range(n):
                    ynew[i] = ytmp[i]
            rhs_packed(ytmp, term_k, term_ptr, term_sp, term_pw,
                       chg_ptr, chg_sp, chg_co, K[s])

        err = 0.0
        for i in range(n):
            e = 0.0
            for q in range(7):
                e += _E[q] * K[q, i]
            e *= h
            ymag = abs(y[i])
            if abs(ynew[i]) > ymag:
                ymag = abs(ynew[i])
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
            continue

        t_new = t + h
        for i in range(n):
            if ynew[i] < -10.0 * atol:
                return STATUS_NEGATIVE, t_new, out

        slack = 1e-13 * max(1.0, abs(t_new))
        while next_out < m and times[next_out] <= t_new + slack:
            theta = (times[next_out] - t) / h
            if theta >= 1.0 - 1e-12:
                for i in range(n):
                    out[next_out, i] = ynew[i]
            else:
                for i in range(n):
                    acc = 0.0
                    for q in range(7):
                        bq = theta * (_P[q, 0] + theta * (_P[q, 1] + theta * (
                            _P[q, 2] + theta * _P[q, 3])))
                        acc += bq * K[q, i]
                    out[next_out, i] = y[i] + h * acc
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
        for i in range(n):
            y[i] = ynew[i]
            K[0, i] = K[6, i]  # first-same-as-last
        h *= factor
        if h > max_step:
            h = max_step

    return STATUS_OK, t, out
