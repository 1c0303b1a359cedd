"""Command-line front end: verification, runs, tables, spectra.

Every command emits either a short text report or a CSV whose first lines
are ``#``-prefixed comments recording the fully resolved configuration, so
on one machine identical invocations produce byte-identical files.
``energy-check`` and ``verify`` (but for the angle of a stencil wider than
three points, which comes from LAPACK) also print the same bytes under
every OpenBLAS kernel and numpy CPU dispatch (``tests/test_kernels.py``
checks this).  The last bits of ``run``, ``convergence`` and ``spectral``
values may differ between machines.

Exit codes: 0 success (and ``--help``), 1 validation failure (bad or
repeated flag values, unknown commands, rejected inputs), 2 numerical
non-convergence or a failed numerical check.
"""
from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

import numpy as np

from .boundary import BoundarySpec
from .energy import _balance_rows, dissipation_and_boundary_form
from .rng import Xoshiro256StarStar
from .scheme import (BUILTIN_SCHEMES, SchemeStencil, check_l2_stability,
                     consistency_order, format_stencil, make_builtin,
                     parse_stencil)
from .solver import (GridSpec, PowerPlusDatum, convergence_study,
                     reference_values, run_interval)
from .spectral import (ENVELOPE_BUDGET, ConvergenceError,
                       _radius_and_condition, assemble_transition_matrix,
                       operator_norm_l2, pseudospectrum_grid)

NAMED_DATA = {
    "u01": (0.5, 3.0),
    "u02": (0.5, 2.6),
    "u03": (0.5, 2.5),
}

# energy-check draws its trials this many at a time and balances each
# chunk in one call of the row kernel, whatever the trials' lengths, so its
# memory does not grow with --trials; no output depends on the chunk
_TRIAL_CHUNK = 512

# pseudospectrum grid points per axis when --res is not given
_RES = 64

# Largest exponent ``log(y)`` of a reference value ``y`` that ``run`` and
# ``convergence`` accept: the float range less a margin of e^8 (about
# 3000) for the stencil sums and the errors built from such values.
_LOG_RANGE = math.log(sys.float_info.max) - 8.0


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _resolve_datum(text: str) -> PowerPlusDatum:
    key = text.strip().lower()
    if key in NAMED_DATA:
        c, alpha = NAMED_DATA[key]
        return PowerPlusDatum(c=c, alpha=alpha)
    if key.startswith("power:"):
        parts = key.split(":")
        if len(parts) != 3:
            raise ValueError(f"datum {text!r} must look like power:c:alpha")
        return PowerPlusDatum(c=float(parts[1]), alpha=float(parts[2]))
    raise ValueError(
        f"unknown datum {text!r}; use one of {sorted(NAMED_DATA)} or "
        "power:c:alpha"
    )


def _check_range(datum: PowerPlusDatum, L: float, J: int) -> None:
    """Refuse an interval ``(0, L]`` on which the datum's reference
    values, their antiderivative (for cell averages) or the sum of ``J``
    of their squares (an l2 error) would overflow; all grow with ``L``."""
    top = L - datum.c  # the largest base of the power
    if not (0.0 < L < math.inf and top > 1.0):
        return  # the grid refuses such an L; a base up to 1 cannot overflow
    log_top = math.log(top)  # inf if L - c overflowed
    if max((datum.alpha + 1.0) * log_top,
           2.0 * datum.alpha * log_top + math.log(max(J, 1))) > _LOG_RANGE:
        raise ValueError(f"--L {L!r} is too long: the reference values of "
                         "the datum on (0, L] overflow")


def _check_finite(what: str, values) -> None:
    """Refuse to print a march whose values left the float range."""
    if not all(math.isfinite(v) for v in values):
        raise AssertionError(f"{what} left the float range")


def _resolve_stencil(args, enforce_cfl: bool = True) -> SchemeStencil:
    name = args.scheme
    key = name.strip().lower().replace("-", "_")
    if key in BUILTIN_SCHEMES:
        a = 1.0 if args.a is None else args.a
        lam = 0.7 if args.lam is None else args.lam
        return make_builtin(key, a, lam, enforce_cfl=enforce_cfl)
    stencil = parse_stencil(name)
    if args.a is not None and args.a != stencil.velocity_a:
        raise ValueError("--a conflicts with the vel= value in --scheme")
    if args.lam is not None and args.lam != stencil.lam:
        raise ValueError("--lambda conflicts with the lambda= value in --scheme")
    return stencil


def _parse_int_list(text: str) -> list[int]:
    try:
        vals = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        vals = []
    if not vals:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")
    return vals


def _distinct(flag: str, values: list[int]) -> list[int]:
    """``values``, refused if one repeats (a repeated CSV column or row)."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{flag} value {v} given twice")
    return values


def _emit(args, lines: list[str]) -> None:
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _csv_lines(header: dict, columns: list[str],
               rows: list[tuple]) -> list[str]:
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return lines


def _config_header(args, stencil: SchemeStencil, **extra) -> dict:
    header = {
        "command": args.command,
        "scheme": format_stencil(stencil),
    }
    header.update(extra)
    return header


def cmd_verify(args) -> int:
    stencil = _resolve_stencil(args, enforce_cfl=False)
    report = consistency_order(stencil)
    stab = check_l2_stability(stencil)
    lines = [f"scheme {format_stencil(stencil)}"]
    failures = []
    order_txt = str(report.order) + (" (capped)" if report.capped else "")
    lines.append(f"consistency order {order_txt}")
    if report.order < 1:
        failures.append(f"consistency order {report.order} < 1 "
                        f"(moment {report.failed_moment} fails)")
    verdict = "stable" if stab.is_stable else "UNSTABLE"
    lines.append(f"l2 symbol max modulus {stab.max_modulus!r} "
                 f"at theta={stab.argmax_theta!r}: {verdict}")
    if not stab.is_stable:
        failures.append("amplification symbol exceeds modulus 1")
    if report.order >= 1:
        d, T = dissipation_and_boundary_form(stencil)
        la = stencil.lam * stencil.velocity_a
        lines.append("dissipation coefficients "
                     + " ".join(repr(float(x)) for x in d))
        lines.append(f"boundary form center value {math.fsum(T.ravel())!r} "
                     f"(target {-la!r})")
    else:
        lines.append("boundary certificate skipped "
                     "(needs first-order consistency)")
    for f in failures:
        lines.append(f"FAIL: {f}")
    if not failures:
        lines.append("all checks passed")
    _emit(args, lines)
    return 0 if not failures else 1


def cmd_run(args) -> int:
    stencil = _resolve_stencil(args)
    datum = _resolve_datum(args.datum)
    if args.J is None:
        raise ValueError("run needs --J")
    grid = GridSpec(L=args.L, J=args.J, lam=stencil.lam)
    kbs = _distinct("--kb", args.kb)
    _check_range(datum, grid.L, grid.J)
    numeric = {}
    for kb in kbs:
        run = run_interval(datum, grid, stencil, BoundarySpec(kb), args.T,
                           record="final", convention=args.convention)
        numeric[kb] = run.final_state
    exact = reference_values(datum, grid, run.t_final, stencil.velocity_a,
                             args.convention)
    x_mid = grid.cell_midpoints
    single = len(kbs) == 1
    columns = ["x_mid"]
    columns += ["numeric" if single else f"numeric_kb{kb}" for kb in kbs]
    columns += ["exact"]
    columns += ["error" if single else f"error_kb{kb}" for kb in kbs]
    rows = []
    for i in range(grid.J):
        row = [x_mid[i]]
        row += [numeric[kb][i] for kb in kbs]
        row += [exact[i]]
        row += [numeric[kb][i] - exact[i] for kb in kbs]
        rows.append(tuple(row))
    _check_finite("the march", (v for row in rows for v in row))
    header = _config_header(
        args, stencil, L=args.L, J=args.J, kb=",".join(map(str, kbs)),
        T=args.T, n_steps=run.n_steps, t_final=repr(run.t_final),
        datum=args.datum,
        convention=args.convention,
    )
    _emit(args, _csv_lines(header, columns, rows))
    return 0


def cmd_convergence(args) -> int:
    stencil = _resolve_stencil(args)
    datum = _resolve_datum(args.datum)
    if args.J_list is None:
        raise ValueError("convergence needs --J-list")
    if len(args.kb) != 1:
        raise ValueError("convergence takes exactly one --kb value")
    kb = args.kb[0]
    _check_range(datum, args.L, max(args.J_list))
    rows = convergence_study(datum, stencil, kb, args.J_list, args.T,
                             L=args.L, convention=args.convention)
    _check_finite("the march", (e for row in rows
                                for e in (row.error_final, row.error_sup)))
    header = _config_header(
        args, stencil, L=args.L, J_list=",".join(map(str, args.J_list)),
        kb=kb, T=args.T, datum=args.datum, convention=args.convention,
    )
    table = [(row.J, row.dx, row.error_final, row.error_sup,
              row.observed_order) for row in rows]
    _emit(args, _csv_lines(
        header, ["J", "dx", "error_final", "error_sup", "observed_order"],
        table))
    return 0


def cmd_spectral(args) -> int:
    stencil = _resolve_stencil(args)
    if args.J_list is not None:
        J_values = _distinct("--J-list", args.J_list)
    elif args.J is not None:
        J_values = [args.J]
    else:
        raise ValueError("spectral needs --J or --J-list")
    kbs = _distinct("--kb", args.kb)
    if args.res is not None and not args.pseudospectrum:
        raise ValueError("--res needs --pseudospectrum")
    if args.pseudospectrum:
        if len(J_values) != 1 or len(kbs) != 1:
            raise ValueError("--pseudospectrum takes a single J and kb")
        J, kb = J_values[0], kbs[0]
        res = _RES if args.res is None else args.res
        # one dense SVD of a J x J matrix per grid point
        _check_work(res * res * max(J, 0) ** 3,
                    f"J={J}, res={res}: res^2 * J^3")
        matrix = assemble_transition_matrix(J, stencil, kb)
        grid = pseudospectrum_grid(matrix, resolution=res)
        header = _config_header(
            args, stencil, J=J, kb=kb, res=res,
            re_range="-1.5,1.5", im_range="-1.5,1.5",
        )
        rows = [(grid.re[k], grid.im[i], grid.sigma[i, k])
                for i in range(res) for k in range(res)]
        _emit(args, _csv_lines(header, ["re", "im", "sigma_min"], rows))
        return 0
    # a few dense eigensolves and an SVD of a J x J matrix per row
    _check_work(len(kbs) * sum(max(J, 0) ** 3 for J in J_values),
                f"J={max(J_values)}: len(kb) * sum(J^3)")
    rows = []
    conditions = []
    for kb in kbs:
        for J in J_values:
            matrix = assemble_transition_matrix(J, stencil, kb)
            rho, condition = _radius_and_condition(matrix)
            rows.append((J, kb, rho, operator_norm_l2(matrix)))
            conditions.append(f"{J}:{kb}:{condition:.1e}")
    # condition number of each row's rho (see the spectral module): near 1
    # it is accurate to rounding, far above 1 it has stopped converging
    header = _config_header(
        args, stencil, J_list=",".join(map(str, J_values)),
        kb=",".join(map(str, kbs)), rho_condition_J_kb=",".join(conditions),
    )
    _emit(args, _csv_lines(header, ["J", "kb", "rho", "norm"], rows))
    return 0


def _check_work(work: int, what: str) -> None:
    """Refuse ``spectral`` dense work, counted in units of ``J^3``, past
    the flop budget that ``power_norm_envelope`` keeps too; ``what``
    names the sizes and the count."""
    if work > ENVELOPE_BUDGET:
        raise ValueError(f"{what} = {work:.2e} exceeds the flop budget "
                         f"{ENVELOPE_BUDGET:.2e}")


def cmd_energy_check(args) -> int:
    stencil = _resolve_stencil(args, enforce_cfl=False)
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    gen = Xoshiro256StarStar(args.seed)
    stab = check_l2_stability(stencil)
    max_residual = 0.0
    max_rhs = -float("inf")
    for start in range(0, args.trials, _TRIAL_CHUNK):
        # each trial is 5 + integer(28) symmetric values, drawn in trial
        # order; the whole chunk is balanced in one pass
        values, lengths = gen.symmetric_runs(
            min(_TRIAL_CHUNK, args.trials - start), 5, 28)
        _, rhs, residual, energy = _balance_rows(stencil, values, lengths)
        scale = np.maximum(1.0, energy)
        max_residual = max(max_residual, float(np.max(residual / scale)))
        max_rhs = max(max_rhs, float(np.max(rhs)))
    lines = [
        f"scheme {format_stencil(stencil)}",
        f"trials {args.trials} seed {args.seed}",
    ]
    if args.trials == 0:
        lines.append("no trials requested; nothing to check")
        _emit(args, lines)
        return 0
    lines.append(f"max relative balance residual {max_residual!r}")
    lines.append(f"max dissipation sum {max_rhs!r}")
    failed = False
    if max_residual > 1e-12:
        lines.append("FAIL: balance residual exceeds 1e-12")
        failed = True
    if stab.is_stable:
        if max_rhs > 1e-12:
            lines.append("FAIL: positive dissipation sum for a stable scheme")
            failed = True
        else:
            lines.append("dissipation nonpositive on all trials (stable scheme)")
    elif max_rhs > 1e-12:
        lines.append("dissipation sum positive on some trials "
                     "(expected: scheme is not l2-stable)")
    _emit(args, lines)
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other rejected input, not
    argparse's 2, which this CLI keeps for numerical failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_scheme(p) -> None:
    p.add_argument("--scheme", default="lax_wendroff",
                   help="builtin name or a custom stencil string "
                        "'r=..,p=..,a=-1:..,0:..;vel=..;lambda=..'")
    p.add_argument("--a", type=float, default=None,
                   help="transport velocity (builtins only, default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="time-step ratio dt/dx (builtins only, default 0.7)")
    p.add_argument("--out", default=None,
                   help="output path (default stdout)")


def _add_J(p) -> None:
    p.add_argument("--J", type=int, default=None, help="cell count")


def _add_J_list(p) -> None:
    p.add_argument("--J-list", dest="J_list", type=_parse_int_list,
                   default=None, help="comma-separated cell counts")


def _add_kb(p) -> None:
    p.add_argument("--kb", type=_parse_int_list, default=[1],
                   help="extrapolation order(s), comma-separated")


def _add_problem(p) -> None:
    """The interval problem that ``run`` and ``convergence`` march."""
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--T", type=float, default=0.5)
    p.add_argument("--datum", default="u01")
    p.add_argument("--convention", default="midpoint",
                   choices=["midpoint", "cell_average"])


def build_parser() -> argparse.ArgumentParser:
    """Each command declares exactly the flags its ``cmd_*`` reads, and
    only full spellings are accepted (no argparse prefix matching)."""
    parser = _Parser(
        prog="transportbc",
        description="Finite-difference transport schemes with extrapolation "
                    "outflow boundaries: verification, runs, tables, spectra.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", allow_abbrev=False,
                       help="consistency, stability, and "
                            "boundary-certificate report")
    _add_scheme(p)

    p = sub.add_parser("run", allow_abbrev=False,
                       help="solution dump at the first step at or past T")
    _add_scheme(p)
    _add_J(p)
    _add_kb(p)
    _add_problem(p)

    p = sub.add_parser("convergence", allow_abbrev=False,
                       help="refinement table of errors and observed orders")
    _add_scheme(p)
    _add_J_list(p)
    _add_kb(p)
    _add_problem(p)

    p = sub.add_parser("spectral", allow_abbrev=False,
                       help="transition-matrix radius/norm report or "
                            "pseudospectrum grid")
    _add_scheme(p)
    cells = p.add_mutually_exclusive_group()
    _add_J(cells)
    _add_J_list(cells)
    _add_kb(p)
    p.add_argument("--pseudospectrum", action="store_true")
    p.add_argument("--res", type=int, default=None,
                   help="pseudospectrum grid resolution per axis "
                        f"(with --pseudospectrum only, default {_RES})")

    p = sub.add_parser("energy-check", allow_abbrev=False,
                       help="randomized energy-identity verification")
    _add_scheme(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=1000)
    return parser


_COMMANDS = {
    "verify": cmd_verify,
    "run": cmd_run,
    "convergence": cmd_convergence,
    "spectral": cmd_spectral,
    "energy-check": cmd_energy_check,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """One parser per process; no command mutates its defaults."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
