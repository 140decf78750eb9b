"""Hot numerical kernels: packed mass-action right-hand side and an embedded
Dormand-Prince 5(4) step loop with PI step-size control, and the quartic
dense output of its steps onto a grid.

The kernels never touch network objects. :func:`kinvar.network.pack_network`
flattens a network into a tuple of terms ``(k, factors, changes)``, one per
reaction direction with a positive rate constant: the term's rate is ``k``
times the product of ``c[i]`` over ``factors``, which lists each rate-law
species once per unit of its power, and each ``(i, coeff)`` in ``changes``
adds ``coeff * rate`` to ``dc/dt[i]``.

:func:`integrate_dp54` chooses the starting step in plain Python from two
calls of :func:`rhs_packed`, and hands the rest of the run to ``loop``, one
step controller generated from the *shape* of the terms, ``n`` and every
term's ``(factors, changes)``: the step-size guard, the six stages, the
error norm (with its ``OverflowError`` stop), the negative-concentration
stop, PI step-size control and the NaN stop. For a small shape every stage
and its right-hand side and the error norm are written inline, and every
species value and stage derivative is a local name, so no stage hands its
values on through a call or a tuple. The systems here are small (2-40
species): indexing numpy arrays element by element would box every read as
a numpy scalar, and list comprehensions over ``zip`` pay the interpreter's
per-element overhead several times over on two or three entries.

Grid rows are not interpolated inside the loop. An accepted step that
reaches one or more grid times packs its record ``t, h, y, w, k0 ... k6``
as doubles into a ``bytearray`` and passes those times by comparisons
alone; after the loop, :func:`_place_rows` evaluates the quartic continuous
extension (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.6) for every
row in one numpy pass, each grid time on the first step that covers it.

Compile memory grows with the length of a unit, so the fused loop is used
only when its source fits :data:`_SOURCE_BUDGET`. The fused loop of two
species is 5.7 KB long and peaks at 0.44 MB of compile memory
(``tracemalloc``), that of the stiff three-species network 7.5 KB and
0.53 MB; the 40-species chain's would be 77 KB and 6.0 MB, and is not even
written, since :func:`_fused_floor` bounds it past the budget. Past the
budget, the same template writes calls to seven per-stage units on tuples:
``stage1`` to ``stage5`` (a stage input followed by the right-hand side at
it), ``stage6`` (the new state and its right-hand side) and ``error``, each
compiled on its own; the chain's largest, ``error``, is 14.8 KB and peaks
at 1.15 MB. Neither path compiles anything it does not run.

The generated source holds only integer indices, the ``repr`` of the
stoichiometric increments and the Dormand-Prince coefficients, never a name
from the input; rate constants and tolerances are bound when a run starts,
through a maker ``mk(rates, atol, rtol)`` that returns the function as a
closure, so one compiled set serves every network of one shape, whatever
its rates. The path is chosen once per shape, and the compiled makers sit in
a least-recently-used cache of ``_CODE_SLOTS`` shapes. It holds code only,
nothing a run computes, so every run does all its arithmetic and its result
does not depend on what ran before. It has more than one slot because a
caller that alternates a few shapes (the chain and the two dimerization
shapes of one benchmark pass) would otherwise recompile on every switch:
about 10 ms at 40 species, under 1 ms for two (``timeit``, best of 5, on a
2-core host).

Python floats are IEEE doubles like float64. Every generated sum and
product, and every elementwise numpy operation of the row pass, keeps the
operand order of :func:`rhs_packed` and of the list-based loop the generated
code replaced (kept in the tests as the reference), so every trajectory,
step count and failure time is bit-identical to it, on either path.
"""

from __future__ import annotations

import functools
import logging
import struct

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
# the coefficients of theta^1 ... theta^4 in the seven weights, as arrays
_P_COLUMNS = tuple(np.array(column)[:, None] for column in zip(*_P))

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
# the longest fused step loop, in characters; a shape whose fused loop is
# longer runs the per-stage units instead. A fused loop of this length peaks
# at 1.09 MB of compile memory, below the 1.15 MB of the 40-species chain's
# largest per-stage unit (error, 14.8 KB)
_SOURCE_BUDGET = 15_000
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
    """Lines setting the term rates at state names ``c``, and each dc_i/dt.

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
    return lines, [" ".join(s) for s in sums]


def _stage_lines(s, n, z):
    """Lines setting the state names ``z`` to the input of stage ``s``."""
    return [f"{z[i]} = y{i} + h * ({_weighted(_A[s - 1], i)})" for i in range(n)]


def _error_lines(n):
    """Lines summing the squared scaled errors of the step from y to w in
    ``err``, and the expression of the norm.

    The larger of |y_i| and |w_i| keeps |y_i| when |w_i| is NaN, as the
    comparison ``abs(yn) > ymag`` of the list loop does.
    """
    lines = ["err = 0.0"]
    for i in range(n):
        lines += [f"u = abs(y{i})", f"v = abs(w{i})",
                  f"err += (({_weighted(_E, i)}) * h / (atol + rtol * (v if v > u else u))) ** 2"]
    return lines, f"(err / {n}) ** 0.5"


def _unit(name, params, body, n_terms, units=()):
    """Source of ``mk(rates, atol, rtol, *units)``, which returns ``name`` as a closure."""
    head = [f"def mk({', '.join(['rates', 'atol', 'rtol', *units])}):"]
    head += ["    " + line for line in _unpack(_names("q", n_terms), "rates")]
    head += [f"    def {name}({', '.join(params)}):"]
    return "\n".join(head + ["        " + line for line in body]
                     + [f"    return {name}", ""])


def _step_units(n, layout):
    """``{name: source}`` of the per-stage units that a long step loop calls."""
    y, z, w = _names("y", n), _names("z", n), _names("w", n)
    rates, sums = _rhs_lines(layout, n, z)

    def unpack_k(stages):
        return [line for s in range(stages) for line in _unpack(_names(f"k{s}_", n), f"k{s}")]

    units = {}
    for s in range(1, 7):
        out = _tuple(sums) if s < 6 else f"{_tuple(z)}, {_tuple(sums)}"
        body = _unpack(y, "y") + unpack_k(s) + _stage_lines(s, n, z) + rates + [f"return {out}"]
        units[f"stage{s}"] = _unit(f"stage{s}", ["y", *_K_ALL[:s], "h"], body, len(layout))
    lines, norm = _error_lines(n)
    body = _unpack(y, "y") + _unpack(w, "w") + unpack_k(7) + lines + [f"return {norm}"]
    units["error"] = _unit("error", ["y", "w", *_K_ALL, "h"], body, len(layout))
    return units


# the step controller of :func:`_loop_source`; each ``{block}`` is a run of
# lines at the indentation of its placeholder
_LOOP = """\
{head}
m = len(times)
t_end = times[m - 1]
floor = -10.0 * atol
accepted = rejected = 0
h_min, h_max = float('inf'), 0.0
t = 0.0
next_out = 1
facold = 1e-4
last_rejected = False
status = {ok}
while next_out < m:
    if t + h > t_end:
        h = t_end - t
    if h < {tiny!r} * (1e-8 if t < 1e-8 else t) or h <= 0.0:
        status = {underflow}
        break
    {step}
    evals += 6
    try:
        {error}
    except OverflowError:  # a scaled error component squared past the float range
        status = {overflow}
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
    if {negative}:
        status = {negative_status}
        t = t_new
        break
    accepted += 1
    if h < h_min:
        h_min = h
    if h > h_max:
        h_max = h
    reach = t_new + 1e-13 * (t_new if t_new > 1.0 else 1.0)
    if times[next_out] <= reach:
        {record}
        next_out += 1
        while next_out < m and times[next_out] <= reach:
            next_out += 1
    # a NaN norm passes the err > 1 test above, but it would turn the PI
    # factor and then h into NaN, and no later step could end the run; a NaN
    # on the step that fills the last row ends it as before
    if err != err and next_out < m:
        status = {nan}
        t = t_new
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
    {advance}
    h *= factor
return status, t, (accepted, rejected, evals, h_min, h_max), next_out"""


def _loop_source(n, layout, units=()):
    """Source of the maker of ``loop``, the whole step loop of one shape.

    ``loop(y, k0, h, times, rec, evals)`` takes the state at t = 0, its
    derivative and the first step. On every accepted step that reaches one
    or more grid times it appends the step's record ``t, h, y, w, k0 ... k6``
    (``w`` the new state), ``2 + 9 n`` doubles packed by the maker's last
    argument ``pack``, to the bytearray ``rec``, and it returns ``(status,
    t, stats, filled)``, ``filled`` the number of grid rows the steps
    reached. With no ``units`` every stage and the error norm are
    written inline over one local name per species; with the names of the
    per-stage units, it calls them on tuples instead.
    """
    if units:
        head = []
        step = [f"k{s} = stage{s}(y, {', '.join(_K_ALL[:s])}, h)" for s in range(1, 6)]
        step += [f"ynew, k6 = stage6(y, {', '.join(_K_ALL[:6])}, h)"]
        error = [f"err = error(y, ynew, {', '.join(_K_ALL)}, h)"]
        negative = "any(v < floor for v in ynew)"
        record = [f"rec += pack(t, h, {', '.join(f'*{v}' for v in ('y', 'ynew', *_K_ALL))})"]
        advance = ["y = ynew", "k0 = k6"]
    else:
        y, w, k0, k6 = (_names(p, n) for p in ("y", "w", "k0_", "k6_"))
        head = _unpack(_names("q", len(layout)), "rates") + _unpack(y, "y") + _unpack(k0, "k0")
        step = []
        for s in range(1, 7):
            z = w if s == 6 else _names("z", n)
            rates, sums = _rhs_lines(layout, n, z)
            step += _stage_lines(s, n, z) + rates + [f"k{s}_{i} = {sums[i]}" for i in range(n)]
        lines, norm = _error_lines(n)
        error = lines + [f"err = {norm}"]
        negative = " or ".join(f"{v} < floor" for v in w)
        stages = [f"k{s}_{i}" for s in range(7) for i in range(n)]
        record = [f"rec += pack({', '.join(['t', 'h', *y, *w, *stages])})"]
        advance = [f"{a} = {b}" for a, b in zip(y + k0, w + k6)]
    body = _LOOP.format(
        head="\n".join(head), step="\n    ".join(step), error="\n        ".join(error),
        record="\n        ".join(record), advance="\n    ".join(advance),
        negative=negative, tiny=16.0 * _EPS, ok=STATUS_OK,
        underflow=STATUS_STEP_UNDERFLOW, overflow=STATUS_OVERFLOW,
        negative_status=STATUS_NEGATIVE, nan=STATUS_NAN_ERROR)
    return _unit("loop", ["y", "k0", "h", "times", "rec", "evals"], body.splitlines(), 0,
                 (*units, "pack"))


def _fused_floor(n):
    """A lower bound on the length of the fused loop of ``n`` species.

    Every species writes its six stage inputs and its three error-norm lines
    into the loop, and each of them is species 0's line with a longer or
    equal index; ``n`` times species 0's lines, with their indentation (12
    and 16 spaces) and line breaks, leaves out every other line.
    """
    stages = [line for s in range(1, 7) for line in _stage_lines(s, 1, ["z0"])]
    error = _error_lines(1)[0][1:]
    return n * (sum(len(line) + 13 for line in stages) + sum(len(line) + 17 for line in error))


def _sources(n, layout):
    """``(path, {name: source})`` of the units one shape compiles, ``loop`` last.

    The fused loop is used when its source fits :data:`_SOURCE_BUDGET`;
    otherwise the loop calls the per-stage units, which come before it in the
    order ``loop`` takes them. A shape whose :func:`_fused_floor` is past the
    budget skips writing the fused loop.
    """
    if _fused_floor(n) <= _SOURCE_BUDGET:
        fused = _loop_source(n, layout)
        if len(fused) <= _SOURCE_BUDGET:
            return "fused loop", {"loop": fused}
    units = _step_units(n, layout)
    return "per-stage units", {**units, "loop": _loop_source(n, layout, tuple(units))}


def _compile(name, source):
    namespace = {}
    exec(compile(source, f"<dp54 {name}>", "exec"), namespace)
    return namespace["mk"]


@functools.lru_cache(maxsize=_CODE_SLOTS)
def _makers(shape):
    """``(path, makers)`` of one shape, compiled in the order of :func:`_sources`."""
    path, sources = _sources(*shape)
    return path, tuple(_compile(name, source) for name, source in sources.items())


def _kernel(terms, n, atol, rtol):
    """``loop`` for ``terms``, bound to their rates and tolerances."""
    misses = _makers.cache_info().misses
    path, makers = _makers((n, tuple((factors, changes) for _, factors, changes in terms)))
    state = "compiled" if _makers.cache_info().misses != misses else "reused"
    log.debug("dp54 kernel for %d species and %d terms (%s): %s", n, len(terms), path, state)
    rates = tuple(k for k, _, _ in terms)
    units = [mk(rates, atol, rtol) for mk in makers[:-1]]
    return makers[-1](rates, atol, rtol, *units, struct.Struct(f"{2 + 9 * n}d").pack)


# ---------------------------------------------------------------------------
# integration


def _place_rows(out, grid, filled, rec, n):
    """Fill rows 1 to ``filled - 1`` of ``out`` from the step records ``rec``.

    Each grid time takes the first recorded step whose reach ``t_new + 1e-13
    max(1, t_new)`` covers it, found by ``searchsorted`` since the reach
    never decreases, and is the quartic interpolant at ``theta = (time - t)
    / h``, or the step's end state ``w`` when ``theta >= 1 - 1e-12``. Every
    operation is the loop's own, element by element and with each sum taken
    from 0.0 in stage order, so the rows are bit-identical to rows
    interpolated inside the loop.
    """
    steps = np.frombuffer(rec).reshape(-1, 2 + 9 * n).T
    times = grid[1:filled]
    # as in the loop's float arithmetic, overflow and NaN pass without a warning
    with np.errstate(all="ignore"):
        t_new = steps[0] + steps[1]
        reach = t_new + 1e-13 * np.where(t_new > 1.0, t_new, 1.0)
        # the record of each row's step as a column: t, h, y, w, k0 ... k6
        cols = np.take(steps, np.searchsorted(reach, times), axis=1)
        h = cols[1]
        theta = (times - cols[0]) / h
        p0, p1, p2, p3 = _P_COLUMNS
        b = theta * (p0 + theta * (p1 + theta * (p2 + theta * p3)))
        states = cols[2:].reshape(9, n, len(times))
        # the products b_s k_s overwrite the rows' copy of k_s
        products = np.multiply(b[:, None, :], states[2:], out=states[2:])
        acc = 0.0 + products[0]
        for s in range(1, 7):
            acc += products[s]
        acc *= h
        rows = np.add(states[0], acc, out=acc)
    np.copyto(rows, states[1], where=theta >= 1.0 - 1e-12)
    out[1:filled] = rows.T


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
    grid = times
    times = times.tolist()
    y = c0.tolist()
    n = len(y)
    m = len(times)
    out = np.full((m, n), np.nan)
    out[0] = y
    if m == 1:
        return STATUS_OK, 0.0, out, (0, 0, 0, float("inf"), 0.0)
    t_end = times[m - 1]
    loop = _kernel(terms, n, atol, rtol)

    f0 = rhs_packed(y, terms, n)
    evals = 1

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
            f1 = rhs_packed([yi + h0 * fi for yi, fi in zip(y, f0)], terms, n)
            evals += 1
            d2 = 0.0
            for yi, fi, gi in zip(y, f0, f1):
                sc = atol + rtol * abs(yi)
                d2 += ((gi - fi) / sc) ** 2
            status = STATUS_OK
    except OverflowError:
        status = STATUS_OVERFLOW
    if status != STATUS_OK:
        return status, 0.0, out, (0, 0, evals, float("inf"), 0.0)
    d2 = (d2 / n) ** 0.5 / h0
    dm = d1 if d1 > d2 else d2
    if dm <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / dm) ** 0.2
    h = min(100.0 * h0, h1)
    if h > t_end:
        h = t_end

    rec = bytearray()
    status, t, stats, filled = loop(y, f0, h, times, rec, evals)
    if filled > 1:
        _place_rows(out, grid, filled, rec, n)
    return status, t, out, stats
