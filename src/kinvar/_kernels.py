"""Hot numerical kernels: packed mass-action right-hand side and an embedded
Dormand-Prince 5(4) step loop with PI step-size control and quartic dense
output.

The kernels never touch network objects. :func:`kinvar.network.pack_network`
flattens a network into a tuple of terms ``(k, factors, changes)``, one per
reaction direction with a positive rate constant: the term's rate is ``k``
times the product of ``c[i]`` over ``factors``, which lists each rate-law
species once per unit of its power, and each ``(i, coeff)`` in ``changes``
adds ``coeff * rate`` to ``dc/dt[i]``.

:func:`integrate_dp54` is one step controller in plain Python: the starting
step, the PI step-size control, rejections, the negative-concentration and
step-underflow stops and the output loop. The per-species work of a step runs
in nine small functions generated from the *shape* of the terms, ``n`` and
every term's ``(factors, changes)``: ``rhs``, ``stage1`` to ``stage5`` (a
stage input followed by the right-hand side at it), ``stage6`` (the new state
and its right-hand side), ``error`` (the scaled error norm) and ``dense``
(one output row by the quartic interpolant). Each is straight-line code over
tuples of Python floats. The systems here are small (2-40 species): indexing
numpy arrays element by element would box every read as a numpy scalar, and
list comprehensions over ``zip`` pay the interpreter's per-element overhead
several times over on two or three entries. The generated source holds only
integer indices, the ``repr`` of the stoichiometric increments and the
Dormand-Prince coefficients, never a name from the input; rate constants and
tolerances are bound when a run starts, through a maker
``mk(rates, atol, rtol)`` that returns the function as a closure, so one
compiled set serves every network of one shape, whatever its rates.

Each function is compiled as its own unit: at 40 species the largest unit
peaks at 1.1 MB of compile memory, where one function holding all nine
bodies peaks at 4.7 MB. The compiled makers sit in a least-recently-used
cache of ``_CODE_SLOTS`` shapes. It holds code only, nothing a run computes,
so every run does all its arithmetic and its result does not depend on what
ran before. It has more than one slot because a caller that alternates a
few shapes (the chain and the two dimerization shapes of one benchmark pass)
would otherwise recompile on every switch: about 27 ms at 40 species, 2-3 ms
for two or three.

Python floats are IEEE doubles like float64. Every generated sum and product
keeps the operand order of :func:`rhs_packed` and of the list-based loop the
generated code replaced (kept in the tests as the reference), so every
trajectory, step count and failure time is bit-identical to it.
"""

from __future__ import annotations

import functools
import logging

import numpy as np

# the integrator's logger: the kernel's compile/reuse line sits beside the
# per-run statistics line of kinvar.integrate
log = logging.getLogger("kinvar.integrate")

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
STATUS_NAN_ERROR = 3
STATUS_OVERFLOW = 4


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


# ---------------------------------------------------------------------------
# per-shape code generation

# compiled shapes kept; a benchmark pass of the chain and the two
# dimerization shapes needs three
_CODE_SLOTS = 4
_K_ALL = tuple(f"k{s}" for s in range(7))


def _names(prefix, n):
    return [f"{prefix}{i}" for i in range(n)]


def _unpack(names, value):
    return [f"{', '.join(names)}, = {value}"] if names else []


def _tuple(items):
    return f"({', '.join(items)},)"


def _weighted(weights, i):
    """``0.0 + w0 * k0_i + w1 * k1_i + ...``, summed in stage order."""
    return " + ".join(["0.0"] + [f"{w!r} * k{s}_{i}" for s, w in enumerate(weights)])


def _rhs_lines(layout, n, c):
    """Lines setting the term rates at state names ``c``, and dc/dt as a tuple.

    Each derivative adds its increments from 0.0 in term order, as
    :func:`rhs_packed` does. ``rhs_packed`` skips a term whose rate is 0.0;
    adding its signed zero changes nothing, because a sum started from 0.0 is
    never -0.0. A unit increment is written as ``+ r`` or ``- r``, which
    rounds exactly like ``1.0 * r`` or ``-1.0 * r``.
    """
    lines = [" * ".join([f"r{j} = q{j}"] + [c[int(i)] for i in factors])
             for j, (factors, _) in enumerate(layout)]
    sums = [["0.0"] for _ in range(n)]
    for j, (_, changes) in enumerate(layout):
        for i, co in changes:
            co = float(co)
            term = f"r{j}" if abs(co) == 1.0 else f"{abs(co)!r} * r{j}"
            sums[int(i)].append(("- " if co < 0.0 else "+ ") + term)
    return lines, _tuple(" ".join(s) for s in sums)


def _unit(name, params, body, n_terms):
    """Source of ``mk(rates, atol, rtol)``, which returns ``name`` as a closure."""
    head = ["def mk(rates, atol, rtol):"]
    head += ["    " + line for line in _unpack(_names("q", n_terms), "rates")]
    head += [f"    def {name}({', '.join(params)}):"]
    return "\n".join(head + ["        " + line for line in body]
                     + [f"    return {name}", ""])


def _sources(n, layout):
    """``(name, source)`` of the nine per-species units of one shape."""
    y, z, w = _names("y", n), _names("z", n), _names("w", n)

    def unpack_k(stages):
        return [line for s in range(stages) for line in _unpack(_names(f"k{s}_", n), f"k{s}")]

    rhs_rates, rhs_out = _rhs_lines(layout, n, z)
    yield "rhs", _unit("rhs", ["c"], _unpack(z, "c") + rhs_rates + [f"return {rhs_out}"],
                       len(layout))
    for s, weights in enumerate(_A, start=1):
        stage = [f"{z[i]} = {y[i]} + h * ({_weighted(weights, i)})" for i in range(n)]
        out = f"{_tuple(z)}, {rhs_out}" if s == 6 else rhs_out
        body = _unpack(y, "y") + unpack_k(s) + stage + rhs_rates + [f"return {out}"]
        yield f"stage{s}", _unit(f"stage{s}", ["y", *_K_ALL[:s], "h"], body, len(layout))
    # the scaled error norm; the larger of |y_i| and |ynew_i| keeps |y_i| when
    # |ynew_i| is NaN, as the comparison ``abs(yn) > ymag`` does
    body = _unpack(y, "y") + _unpack(w, "w") + unpack_k(7) + ["err = 0.0"]
    for i in range(n):
        body += [f"u = abs({y[i]})", f"v = abs({w[i]})",
                 f"err += (({_weighted(_E, i)}) * h / (atol + rtol * (v if v > u else u))) ** 2"]
    body += [f"return (err / {n}) ** 0.5"]
    yield "error", _unit("error", ["y", "w", *_K_ALL, "h"], body, len(layout))
    body = [f"b{s} = theta * ({p0!r} + theta * ({p1!r} + theta * ({p2!r} + theta * {p3!r})))"
            for s, (p0, p1, p2, p3) in enumerate(_P)]
    body += _unpack(y, "y") + unpack_k(7)
    rows = [f"{y[i]} + h * ({' + '.join(['0.0'] + [f'b{s} * k{s}_{i}' for s in range(7)])})"
            for i in range(n)]
    body += [f"return {_tuple(rows)}"]
    yield "dense", _unit("dense", ["y", *_K_ALL, "h", "theta"], body, len(layout))


def _compile(name, source):
    namespace = {}
    exec(compile(source, f"<dp54 {name}>", "exec"), namespace)
    return namespace["mk"]


@functools.lru_cache(maxsize=_CODE_SLOTS)
def _makers(shape):
    n, layout = shape
    return tuple(_compile(name, source) for name, source in _sources(n, layout))


def _kernel(terms, n, atol, rtol):
    """The nine per-species functions for ``terms``, bound to their rates."""
    misses = _makers.cache_info().misses
    makers = _makers((n, tuple((factors, changes) for _, factors, changes in terms)))
    state = "compiled" if _makers.cache_info().misses != misses else "reused"
    log.debug("dp54 kernel for %d species and %d terms: %s", n, len(terms), state)
    rates = tuple(k for k, _, _ in terms)
    return [mk(rates, atol, rtol) for mk in makers]


# ---------------------------------------------------------------------------
# step controller


def integrate_dp54(terms, c0, times, rtol, atol):
    """Integrate from times[0] = 0 to times[-1], filling every grid row.

    Returns ``(status, t_fail, out, stats)``. Status 0 is success; 1 is
    step-size underflow, 2 a concentration below -10*atol, 3 a NaN error
    norm on a step that leaves grid rows unfilled, and 4 a scaled
    derivative or error component whose square overflows; each is reported
    with the time at which it occurred, and rows past the failure point are
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
    rhs, stage1, stage2, stage3, stage4, stage5, stage6, error, dense = \
        _kernel(terms, n, atol, rtol)

    f0 = rhs(y)
    evals += 1

    # starting step: scaled magnitudes of y and f, refined by an Euler probe.
    # A float ** raises OverflowError where * would give inf: a finite scaled
    # derivative can square past the float range
    try:
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
            status = STATUS_STEP_UNDERFLOW
        else:
            f1 = rhs([yi + h0 * fi for yi, fi in zip(y, f0)])
            evals += 1
            d2 = 0.0
            for yi, fi, gi in zip(y, f0, f1):
                sc = atol + rtol * abs(yi)
                d2 += ((gi - fi) / sc) ** 2
            status = STATUS_OK
    except OverflowError:
        status = STATUS_OVERFLOW
    if status != STATUS_OK:
        rows.extend([float("nan")] * n for _ in range(m - 1))
        return status, 0.0, np.array(rows), (0, 0, evals, h_min, h_max)
    d2 = (d2 / n) ** 0.5 / h0
    dm = d1 if d1 > d2 else d2
    if dm <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** 0.2
    h = min(100.0 * h0, h1)
    if h > t_end:
        h = t_end

    k0 = f0
    floor = -10.0 * atol
    t = 0.0
    next_out = 1
    facold = 1e-4
    last_rejected = False

    while next_out < m:
        if t + h > t_end:
            h = t_end - t
        if h < 16.0 * _EPS * max(abs(t), 1e-8) or h <= 0.0:
            status = STATUS_STEP_UNDERFLOW
            break

        k1 = stage1(y, k0, h)
        k2 = stage2(y, k0, k1, h)
        k3 = stage3(y, k0, k1, k2, h)
        k4 = stage4(y, k0, k1, k2, k3, h)
        k5 = stage5(y, k0, k1, k2, k3, k4, h)
        ynew, k6 = stage6(y, k0, k1, k2, k3, k4, k5, h)
        evals += 6
        try:
            err = error(y, ynew, k0, k1, k2, k3, k4, k5, k6, h)
        except OverflowError:  # a scaled error component squared past the float range
            status = STATUS_OVERFLOW
            break

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
                rows.append(dense(y, k0, k1, k2, k3, k4, k5, k6, h, theta))
            next_out += 1
        if err != err and next_out < m:
            # a NaN norm passes the err > 1 test above, but it would turn the
            # PI factor and then h into NaN, and no later step could end the
            # run; a NaN on the step that fills the last row ends it as before
            status, t = STATUS_NAN_ERROR, t_new
            break

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
