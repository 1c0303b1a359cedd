"""A seeded grammar fuzz of the command line, and of the library under it.

Each argv is drawn by a stdlib ``random.Random`` with a fixed seed from a
small grammar over the five commands: builtin and custom stencil strings,
and flag values that are often plain and sometimes ``nan``, ``inf``,
``-0.0``, ``1e308``, ``5e-324`` or ``1e-13``, and integer flags that are
sometimes past the float range (``HUGE``) or outflow orders whose weights
are (``--kb`` 1100 or 30000).  The sizes that run stay small (J <= 40,
trials <= 20, ``--res`` <= 8), so the whole gate takes a few seconds.
Every call must end in exit code 0, 1 or 2 without a traceback or a
RuntimeWarning, and an exit-0 output may hold ``nan`` or ``inf`` only where
it is labelled: an ``observed_order`` with no two nonzero errors to
compare, or a report line that also gives the failed verdict.  Each command
must also exit 0 at least once, so the grammar reaches past the refusals.

The library gate draws the same values for direct calls of the drivers
(``run_interval`` with ``error_metrics``, ``convergence_study``,
``run_halfline_outflow``, whose result also feeds
``stability_functional_ratio``) and of ``reference_values``.  Each call must
return finite numbers, raise a ``ValueError`` that names an input, or
raise ``AssertionError("the march left the float range")``, without a
RuntimeWarning, and each kind of call must return at least once.
"""
import contextlib
import io
import math
import random
import re
import warnings

import numpy as np
import pytest

from transportbc import (BoundarySpec, GridSpec, PowerPlusDatum,
                         convergence_study, error_metrics, format_stencil,
                         make_builtin, parse_stencil, reference_values,
                         run_halfline_outflow, run_interval,
                         stability_functional_ratio)
from transportbc.cli import main

SEEDS = (0, 1)
COMMANDS = ("verify", "run", "convergence", "spectral", "energy-check")
CALLS_PER_SEED = 250

# the values at the ends of the float range count twice
SPECIAL = ["nan", "inf", "-inf", "-0.0", "0", "-1"] + [
    "1e308", "5e-324", "1e-13"] * 2
BUILTINS = ["upwind", "lax_friedrichs", "lax_wendroff", "Lax-Wendroff",
            "leapfrog"]
# an integer past the float range, and orders whose weights are, drawn
# as one --kb entry in five
HUGE = 10 ** 400
KBS = [0, 1, 2, 3] * 3 + [1100, 30000, HUGE]
DATA = ["u01", "u02", "u03", "power:0.2:1.5", "power:0:2", "power:-0.3:0.5",
        "power:1:1", "bogus", "power:1"]


def _float(rng: random.Random, plain: list[str], odd: float = 0.25) -> str:
    """One of ``plain``, or with probability ``odd`` one of ``SPECIAL``."""
    return rng.choice(SPECIAL) if rng.random() < odd else rng.choice(plain)


def _ints(rng: random.Random, pool: list[int], k: int) -> str:
    return ",".join(str(rng.choice(pool)) for _ in range(k))


def _custom(rng: random.Random) -> str:
    """A stencil string: a builtin's, one with a coefficient swapped for an
    odd value, a shift plus a large second difference, or one of random
    widths and coefficients."""
    kind = rng.random()
    if kind < 0.4:
        lam = float(_float(rng, ["0.3", "0.5", "0.7", "0.9"]))
        name = rng.choice(BUILTINS[:3])
        try:
            text = format_stencil(make_builtin(name, 1.0, lam,
                                               enforce_cfl=False))
        except ValueError:
            return "r=1,p=0,a=-1:0.5,0:0.5;vel=1;lambda=" + repr(lam)
        if kind < 0.2:
            head, _, tail = text.partition("a=")
            coeffs, _, rest = tail.partition(";")
            parts = coeffs.split(",")
            i = rng.randrange(len(parts))
            parts[i] = parts[i].split(":")[0] + ":" + rng.choice(SPECIAL)
            text = head + "a=" + ",".join(parts) + ";" + rest
        return text
    if kind > 0.9:
        # a shift by two cells plus H times a second difference: first-order
        # consistent, with an energy form that overflows from 1e155 on and
        # a balance that overflows at 1.5e153
        H = float(rng.choice(["1e3", "1.5e153", "1e155", "1e200", "-1e200"]))
        return (f"r=2,p=1,a=-2:1,-1:{H!r},0:{-2 * H!r},1:{H!r};vel=1;"
                "lambda=2")
    r, p = rng.randint(0, 3), rng.randint(0, 3)
    coeffs = ",".join(f"{ell}:{_float(rng, ['0.25', '0.5', '-0.1', '1'])}"
                      for ell in range(-r, p + 1))
    text = (f"r={r},p={p},a={coeffs};vel={_float(rng, ['1', '0.5', '2'])};"
            f"lambda={_float(rng, ['0.5', '0.7', '1'])}")
    if rng.random() < 0.1:
        text = text.replace(f"p={p}", f"p={p + 1}")  # an offset missing
    return text


def _scheme(rng: random.Random) -> list[str]:
    argv = []
    if rng.random() < 0.5:
        argv += ["--scheme", rng.choice(BUILTINS)]
        if rng.random() < 0.4:
            argv += ["--a", _float(rng, ["1", "0.5", "2"])]
        if rng.random() < 0.4:
            argv += ["--lambda", _float(rng, ["0.5", "0.7", "0.9"])]
    elif rng.random() < 0.9:
        argv += ["--scheme", _custom(rng)]
    return argv


def _problem(rng: random.Random) -> list[str]:
    argv = []
    if rng.random() < 0.9:
        argv += ["--L", _float(rng, ["1", "0.7", "2"], 0.5)]
    if rng.random() < 0.8:
        argv += ["--T", _float(rng, ["0.5", "1", "0", "0.25"])]
    if rng.random() < 0.5:
        argv += ["--datum", rng.choice(DATA)]
    if rng.random() < 0.7:
        argv += ["--convention", rng.choice(["midpoint", "cell_average"])]
    return argv


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(COMMANDS + ("run", "convergence"))
    argv = [command] + _scheme(rng)
    Js = [1, 2, 3, 5, 7, 10, 20, 40, HUGE, 0, -1]
    if command == "run":
        if rng.random() < 0.95:
            argv += ["--J", str(rng.choice(Js))]
        if rng.random() < 0.6:
            argv += ["--kb", _ints(rng, KBS, rng.randint(1, 3))]
        argv += _problem(rng)
    elif command == "convergence":
        if rng.random() < 0.95:
            J_list = sorted(rng.sample(Js[:9], rng.randint(1, 4)))
            if rng.random() < 0.1:
                J_list.reverse()
            argv += ["--J-list", ",".join(map(str, J_list))]
        if rng.random() < 0.6:
            argv += ["--kb", _ints(rng, KBS, rng.choice([1, 1, 2]))]
        argv += _problem(rng)
    elif command == "spectral":
        if rng.random() < 0.5:
            argv += ["--J", str(rng.choice(Js))]
        elif rng.random() < 0.9:
            argv += ["--J-list", _ints(rng, Js, rng.randint(1, 3))]
        if rng.random() < 0.6:
            argv += ["--kb", _ints(rng, KBS, rng.randint(1, 2))]
        if rng.random() < 0.3:
            argv += ["--pseudospectrum"]
        if rng.random() < 0.3:
            argv += ["--res", str(rng.choice([1, 2, 5, 8, HUGE, 0, -1]))]
    elif command == "energy-check":
        if rng.random() < 0.7:
            argv += ["--seed", str(rng.choice([0, 1, 7, -1, 2 ** 70]))]
        argv += ["--trials", str(rng.choice([0, 1, 5, 20, -1]))]
    return argv


def _unlabelled_nonfinite(command: str, text: str) -> list[str]:
    """Lines of an exit-0 output that hold ``nan`` or ``inf`` unlabelled."""
    bad = []
    if command in ("verify", "energy-check"):
        for line in text.splitlines():
            words = line.replace(",", " ").split()
            if any(not math.isfinite(float(w)) for w in words
                   if w.lower().lstrip("+-") in ("nan", "inf")):
                if "UNSTABLE" not in line and "FAIL" not in line:
                    bad.append(line)
        return bad
    rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
    columns = rows[0].split(",")
    table = [dict(zip(columns, map(float, row.split(","))))
             for row in rows[1:]]
    for i, row in enumerate(table):
        for column, value in row.items():
            if math.isfinite(value):
                continue
            # no order without two nonzero errors
            if column == "observed_order" and (
                    i == 0 or 0.0 in (row["error_sup"],
                                      table[i - 1]["error_sup"])):
                continue
            bad.append(f"{column}={value!r} in {rows[i + 1]}")
    return bad


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_cli_grammar_fuzz(seed):
    rng = random.Random(seed)
    failures = []
    succeeded = set()
    for _ in range(CALLS_PER_SEED):
        argv = _argv(rng)
        try:
            code, out, _ = _call(argv)
        except Exception as exc:  # a traceback, a warning among them
            failures.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        if code not in (0, 1, 2):
            failures.append((argv, f"exit code {code!r}"))
        elif code == 0:
            succeeded.add(argv[0])
            bad = _unlabelled_nonfinite(argv[0], out)
            if bad:
                failures.append((argv, f"unlabelled non-finite: {bad[:2]}"))
    assert not failures, "\n".join(f"{a!r}: {m}" for a, m in failures[:20])
    # every command gets past the refusals too
    assert succeeded == set(COMMANDS), succeeded


# -- the library under the command line ---------------------------------------

LIBRARY_CALLS_PER_SEED = 3000
KINDS = ("run", "convergence", "halfline", "reference")
CONVENTIONS = ("midpoint", "cell_average")
# a refusal names what it refuses: a field of the datum, grid, stencil,
# closure or call, or the grid or stencil as a whole
INPUT_NAMES = re.compile(
    r"\b(L|J|T|dt|lam|lambda|velocity|k_b|steps|shift|convention|window|"
    r"alpha|offset|offsets|interval length|coefficients|scheme|grid|gamma)\b")
# the weight exponent -2 gamma n dt at both ends of the float range
GAMMAS = (1e-300, 1.0, 1e300, 8.98e307, 1e308)


def _number(rng: random.Random, plain: list[str], odd: float = 0.1) -> float:
    return float(_float(rng, plain, odd))


def _library_call(rng: random.Random):
    """``(kind, call)``: one drawn library call, whose ``call()`` builds
    its datum, stencil and grid (their refusals count as its own) and
    returns every number that the call returns."""
    kind = rng.choice(KINDS)
    c = _number(rng, ["0.5", "0.2", "0", "-0.3", "1"])
    alpha = _number(rng, ["3", "2.6", "2.5", "1.5", "0.5"])
    L = _number(rng, ["1", "0.7", "2"], 0.2)
    J = rng.choice([1, 2, 3, 5, 7, 10, 20, 40, 40, 40])
    T = _number(rng, ["0.5", "1", "0", "0.25"])
    kb = rng.choice([0, 1, 2, 3] * 3 + [1100])
    conv, other = rng.choice(CONVENTIONS), rng.choice(CONVENTIONS)
    record = rng.choice(["final", "sup_error", "full_history"])
    text = _custom(rng) if rng.random() < 0.5 else None
    name = rng.choice(BUILTINS)
    a = _number(rng, ["1", "0.5", "2"])
    lam = _number(rng, ["0.5", "0.7", "0.9"])
    J_list = sorted(rng.sample([1, 2, 3, 5, 7, 10, 20, 40], rng.randint(1, 3)))
    steps = rng.choice([0, 1, 5, 20, -1])
    g = ([_number(rng, ["0", "0.5", "-0.25"]) for _ in range(3)]
         if rng.random() < 0.5 else None)
    times = [_number(rng, ["0.5", "1", "0", "0.25"])
             for _ in range(rng.choice([1, 1, 3]))]
    shift_a = _number(rng, ["1", "0.5", "2", "-1"])
    gamma = rng.choice(GAMMAS)

    def call() -> list:
        datum = PowerPlusDatum(c, alpha)
        stencil = parse_stencil(text) if text else make_builtin(name, a, lam)
        grid = GridSpec(L=L, J=J, lam=stencil.lam)
        if kind == "run":
            run = run_interval(datum, grid, stencil, BoundarySpec(kb), T,
                               record=record, convention=conv)
            rep = error_metrics(run, convention=other)
            return [run.final_state, run.linf_history, run.l2_history,
                    run.history, rep.linf_final, rep.l2_final, rep.linf_sup,
                    rep.l2_sup]
        if kind == "convergence":
            rows = convergence_study(datum, stencil, kb, J_list, T, L=L,
                                     convention=conv)
            out = []
            for i, row in enumerate(rows):
                out += [row.dx, row.error_final, row.error_sup]
                # no order without two nonzero errors
                if i and 0.0 not in (row.error_sup, rows[i - 1].error_sup):
                    out.append(row.observed_order)
            return out
        if kind == "halfline":
            sources = None if g is None else np.resize(
                g, (max(steps + 1, 0), stencil.p))
            res = run_halfline_outflow(datum, grid, stencil, kb, steps,
                                       sources=sources, convention=conv)
            out = stability_functional_ratio(res, gamma)
            # the ratio is inf by definition when only its right side is 0
            return [res.final_state, res.initial_interior, res.traces,
                    res.masses, res.energies, res.linf_history,
                    res.l2_history, out.lhs, out.rhs] + (
                        [out.ratio] if out.rhs else [])
        t = times if len(times) > 1 else times[0]
        return [reference_values(datum, grid, t, shift_a, conv)]
    return kind, call


@pytest.mark.parametrize("seed", SEEDS)
def test_library_fuzz(seed):
    rng = random.Random(seed)
    failures = []
    returned = set()
    for _ in range(LIBRARY_CALLS_PER_SEED):
        kind, call = _library_call(rng)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = call()
        except ValueError as exc:
            if not INPUT_NAMES.search(str(exc)):
                failures.append((kind, f"unnamed refusal: {exc}"))
            continue
        except AssertionError as exc:
            if str(exc) != "the march left the float range":
                failures.append((kind, f"AssertionError: {exc}"))
            continue
        except Exception as exc:  # a RuntimeWarning among them
            failures.append((kind, f"{type(exc).__name__}: {exc}"))
            continue
        returned.add(kind)
        if not all(np.isfinite(v).all() for v in values if v is not None):
            failures.append((kind, "a returned number is not finite"))
    assert not failures, "\n".join(f"{k}: {m}" for k, m in failures[:20])
    assert returned == set(KINDS), returned
