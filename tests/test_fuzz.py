"""A seeded grammar fuzz of the command line.

Each argv is drawn by a stdlib ``random.Random`` with a fixed seed from a
small grammar over the five commands: builtin and custom stencil strings,
and flag values that are often plain and sometimes ``nan``, ``inf``,
``-0.0``, ``1e308``, ``5e-324`` or ``1e-13``.  Sizes stay small (J <= 40,
trials <= 20, ``--res`` <= 8), so the whole gate takes a few seconds.
Every call must end in exit code 0, 1 or 2 without a traceback or a
RuntimeWarning, and an exit-0 output may hold ``nan`` or ``inf`` only where
it is labelled: an ``observed_order`` with no two nonzero errors to
compare, or a report line that also gives the failed verdict.  Each command
must also exit 0 at least once, so the grammar reaches past the refusals.
"""
import contextlib
import io
import math
import random
import warnings

import pytest

from transportbc import format_stencil, make_builtin
from transportbc.cli import main

SEEDS = (0, 1)
COMMANDS = ("verify", "run", "convergence", "spectral", "energy-check")
CALLS_PER_SEED = 250

# the values at the ends of the float range count twice
SPECIAL = ["nan", "inf", "-inf", "-0.0", "0", "-1"] + [
    "1e308", "5e-324", "1e-13"] * 2
BUILTINS = ["upwind", "lax_friedrichs", "lax_wendroff", "Lax-Wendroff",
            "leapfrog"]
DATA = ["u01", "u02", "u03", "power:0.2:1.5", "power:0:2", "power:-0.3:0.5",
        "power:1:1", "bogus", "power:1"]


def _float(rng: random.Random, plain: list[str], odd: float = 0.25) -> str:
    """One of ``plain``, or with probability ``odd`` one of ``SPECIAL``."""
    return rng.choice(SPECIAL) if rng.random() < odd else rng.choice(plain)


def _ints(rng: random.Random, pool: list[int], k: int) -> str:
    return ",".join(str(rng.choice(pool)) for _ in range(k))


def _custom(rng: random.Random) -> str:
    """A stencil string: a builtin's, one with a coefficient swapped for an
    odd value, or one of random widths and coefficients."""
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
    Js = [1, 2, 3, 5, 7, 10, 20, 40, 0, -1]
    if command == "run":
        if rng.random() < 0.95:
            argv += ["--J", str(rng.choice(Js))]
        if rng.random() < 0.6:
            argv += ["--kb", _ints(rng, [0, 1, 2, 3], rng.randint(1, 3))]
        argv += _problem(rng)
    elif command == "convergence":
        if rng.random() < 0.95:
            J_list = sorted(rng.sample(Js[:8], rng.randint(1, 4)))
            if rng.random() < 0.1:
                J_list.reverse()
            argv += ["--J-list", ",".join(map(str, J_list))]
        if rng.random() < 0.6:
            argv += ["--kb", _ints(rng, [0, 1, 2, 3], rng.choice([1, 1, 2]))]
        argv += _problem(rng)
    elif command == "spectral":
        if rng.random() < 0.5:
            argv += ["--J", str(rng.choice(Js))]
        elif rng.random() < 0.9:
            argv += ["--J-list", _ints(rng, Js, rng.randint(1, 3))]
        if rng.random() < 0.6:
            argv += ["--kb", _ints(rng, [0, 1, 2, 3], rng.randint(1, 2))]
        if rng.random() < 0.3:
            argv += ["--pseudospectrum"]
        if rng.random() < 0.3:
            argv += ["--res", str(rng.choice([1, 2, 5, 8, 0, -1]))]
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
