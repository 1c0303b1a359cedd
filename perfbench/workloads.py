"""The benchmark's three workloads: inputs drawn from a seed, operations,
and output checks against ``oracle``.

A workload object goes through three phases:

- ``prepare()`` is the set-up a user pays once per process: building the
  stencils, drawing the inputs from the seed and filling the package's
  lazy caches.  Together with the import it is timed as ``setup_s``.
- ``expect()`` computes the oracle's expected values.  It runs once,
  before timing starts, and is not part of any metric.
- ``ops(outdir)`` returns the operations of one pass as ``(label, thunk)``
  pairs.  A thunk calls the package through module attributes (so the
  tracer's wrappers are seen) and returns the problems it found; an
  empty list is a passed operation.

The package receives only the generated inputs, never the seed.
"""
from __future__ import annotations

import hashlib
import math
import os

import numpy as np

import oracle
from transportbc import boundary, cli, energy, scheme, solver, spectral

A, LAM = 1.0, 0.7
BUILTINS = ("upwind", "lax-friedrichs", "lax-wendroff")
KINK_DATA = {"u01": 3.0, "u02": 2.6, "u03": 2.5}  # ((x - 1/2)_+)^alpha

# Relative tolerances of the checks.  Stepper outputs repeat the oracle's
# arithmetic up to the rounding of grid coordinates.  The l2 norms come
# from power iteration, which on the clustered top singular values of the
# kb=1 matrices (sigma_1 = 0.99999...) stops up to 3e-6 short at rtol 1e-9.
STEPPER_RTOL = 1e-8
NORM_RTOL = 2e-5
RADIUS20_ATOL = 1e-8
# sigma_min is well conditioned in absolute terms; inverse iteration
# reaches it to about 2e-8 where sigma is near the eps floor.
SIGMA_ATOL, SIGMA_RTOL = 1e-7, 1e-6


def _rel(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


def _modulated_bump(coeffs: np.ndarray):
    """Smooth bump on (0.6, 0.95): sin^2 carrier times a low-order cosine
    polynomial with the given coefficients, zero outside its support."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        xi = (x - 0.6) / 0.35
        inside = (xi > 0.0) & (xi < 1.0)
        xi = np.where(inside, xi, 0.5)
        mod = sum(c * np.cos((i + 1) * math.pi * xi)
                  for i, c in enumerate(coeffs))
        return np.where(inside, np.sin(math.pi * xi) ** 2 * (1.0 + 0.5 * mod),
                        0.0)
    return fn


def _n_steps(T: float, dt: float) -> int:
    return max(0, math.ceil(T / dt - 1e-9))


class Refine:
    """Time stepping under grid refinement.

    Why: ``solver``, ``boundary`` and ``state`` do nearly all of the work
    and ``spectral`` does none.  At large J the per-step reference
    evaluation and the stencil update dominate, so a single marching loop
    or broadcast reference values (ROADMAP item 4) show here, and a
    broadcast that trades memory for time shows in ``peak_rss_mb``.

    Inputs: Lax-Wendroff, a=1, lambda=0.7 on (0, 1] to T=0.5.
    - ``convergence_study`` of the paper's kink data u01/u02/u03 for
      kb in {1, 2} on J = 10 .. 2560 (doubling), as
      ``demos/convergence_tables.py`` with one more refinement;
    - ``run_halfline_outflow`` + ``stability_functional_ratio`` for every
      builtin and kb in {0, 1, 2} on J in {20, 40, 80, 160}, T=0.35,
      gamma=1, with a seeded smooth bump, as in the acceptance test;
    - one ``record="full_history"`` run at J=1280 (seeded datum, kb and
      convention) whose ``error_metrics`` is re-measured in the other
      convention.
    """

    name = "refine"
    T = 0.5
    J_SWEEP = tuple(10 * 2 ** k for k in range(9))
    HALF_T, HALF_J, GAMMA = 0.35, (20, 40, 80, 160), 1.0
    HISTORY_J = 1280

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.stencils = {name: scheme.make_builtin(name, A, LAM)
                         for name in BUILTINS}
        self.bump = _modulated_bump(rng.uniform(-1.0, 1.0, 4))
        self.history_datum = str(rng.choice(sorted(KINK_DATA)))
        self.history_kb = int(rng.integers(0, 3))
        conventions = ("midpoint", "cell_average")
        k = int(rng.integers(0, 2))
        self.history_conv, self.history_remeasure = conventions[k], \
            conventions[1 - k]

    def expect(self) -> None:
        oracle.check_against_paper(LAM, self.T)
        weights = oracle.builtin_weights("lax-wendroff", LAM)[2]
        self.want_sweep = {
            (d, kb): oracle.sup_error_table(
                weights, 1, 1, kb, self.J_SWEEP, self.T, LAM,
                oracle.PowerKink(0.5, alpha))
            for d, alpha in KINK_DATA.items() for kb in (1, 2)}
        self.want_ratio = {}
        for name in BUILTINS:
            r, p, w = oracle.builtin_weights(name, LAM)
            for kb in (0, 1, 2):
                self.want_ratio[name, kb] = [
                    oracle.halfline_ratio(w, r, p, kb, J,
                                          self._steps(J), LAM,
                                          self.bump, self.GAMMA)
                    for J in self.HALF_J]
        linf, l2, _ = oracle.interval_errors(
            weights, 1, 1, self.history_kb, self.HISTORY_J, self.T, LAM,
            oracle.PowerKink(0.5, KINK_DATA[self.history_datum]),
            start=self.history_conv, measure=self.history_remeasure)
        self.want_history = (float(np.max(linf)), float(np.max(l2)),
                             float(linf[-1]))

    def ops(self, outdir: str):
        ops = [(f"convergence {d} kb={kb}", self._sweep(d, kb))
               for d in KINK_DATA for kb in (1, 2)]
        ops += [(f"halfline {name} kb={kb}", self._halfline(name, kb))
                for name in BUILTINS for kb in (0, 1, 2)]
        ops.append(("full-history remeasure", self._history))
        return ops

    def _sweep(self, d: str, kb: int):
        want_err, want_order = self.want_sweep[d, kb]

        def op():
            rows = solver.convergence_study(
                solver.PowerPlusDatum(0.5, KINK_DATA[d]),
                self.stencils["lax-wendroff"], kb, self.J_SWEEP, self.T)
            bad = []
            for row, err, order in zip(rows, want_err, want_order):
                if _rel(row.error_sup, err) > STEPPER_RTOL:
                    bad.append(f"J={row.J} sup error {row.error_sup!r}, "
                               f"oracle {err!r}")
                if not math.isnan(order) and \
                        abs(row.observed_order - order) > 1e-6:
                    bad.append(f"J={row.J} order {row.observed_order!r}, "
                               f"oracle {order!r}")
            if len(rows) != len(want_err):
                bad.append(f"{len(rows)} rows, want {len(want_err)}")
            return bad
        return op

    def _steps(self, J: int) -> int:
        return _n_steps(self.HALF_T, LAM * (1.0 / J))

    def _halfline(self, name: str, kb: int):
        st = self.stencils[name]
        want = self.want_ratio[name, kb]

        def op():
            bad = []
            for J, ratio in zip(self.HALF_J, want):
                grid = solver.GridSpec(L=1.0, J=J, lam=LAM)
                run = solver.run_halfline_outflow(
                    solver.CallableDatum(self.bump, support_min=0.6), grid,
                    st, kb=kb, steps=self._steps(J))
                got = solver.stability_functional_ratio(run, self.GAMMA).ratio
                if _rel(got, ratio) > STEPPER_RTOL:
                    bad.append(f"J={J} ratio {got!r}, oracle {ratio!r}")
            return bad
        return op

    def _history(self):
        grid = solver.GridSpec(L=1.0, J=self.HISTORY_J, lam=LAM)
        run = solver.run_interval(
            solver.PowerPlusDatum(0.5, KINK_DATA[self.history_datum]), grid,
            self.stencils["lax-wendroff"],
            boundary.BoundarySpec(self.history_kb), self.T,
            record="full_history", convention=self.history_conv)
        rep = solver.error_metrics(run, convention=self.history_remeasure)
        got = (rep.linf_sup, rep.l2_sup, rep.linf_final)
        return [f"{label} {g!r}, oracle {w!r}" for label, g, w in
                zip(("linf_sup", "l2_sup", "linf_final"), got,
                    self.want_history) if _rel(g, w) > STEPPER_RTOL]


class Spectra:
    """Transition-matrix analysis of Lax-Wendroff for kb in {1, 2}.

    Why: ``spectral`` does nearly all of the work and the stepper does
    none.  Each hand-written kernel that ROADMAP item 2 would replace by
    LAPACK carries real weight: dense QR eigenvalues (J up to 160), power
    iteration for l2 norms (including one run that hits its iteration
    cap), power-norm envelopes, and LU plus inverse iteration for
    sigma_min on a pseudospectrum grid.

    Inputs, sized so that no operation takes much over a second (each is
    timed against a reference kernel run just before and after it, which
    cannot follow the machine's speed through a longer one) and a pass
    takes about 4 s (the J=1280 eigenproblem alone takes about a minute):
    - radius (``spectral_radius``) and norm (rtol 1e-9, as the CLI) at
      J in {20, 80, 160} for kb=1 and J in {20, 80} for kb=2, and at J=160
      for kb=2 with the default norm rtol;
    - the default-rtol norm at J=80, kb=1, with an iteration cap of 20000,
      which it hits;
    - ``power_norm_envelope`` at J=40, n=64, default rtol, for kb=1, and the
      demo's n=4J at rtol 1e-9 for J=20, both kb;
    - ``pseudospectrum_grid`` at J=40, kb=2, resolution 12, on a window
      shifted by a seeded offset;
    - three seeded ``smallest_singular_value`` resolvent probes outside the
      unit disk for J in {20, 80} and both kb.

    Checked: only well-conditioned outputs.  Norms, envelopes and sigma_min
    against LAPACK, the J=20 radii, radius <= norm, envelope[0] == 1.  The
    float64 radii at J >= 80 are points of the machine-eps pseudospectrum,
    not eigenvalues (Reichel & Trefethen, LAA 162, 1992), and are never
    compared.
    """

    name = "spectra"
    # (J, kb, norm rtol) of the radius-and-norm operations
    SWEEP = ((20, 1, 1e-9), (80, 1, 1e-9), (160, 1, 1e-9), (20, 2, 1e-9),
             (80, 2, 1e-9), (160, 2, 1e-12))
    # (J, n, rtol, kb) of the envelopes
    ENVELOPES = ((40, 64, 1e-12, 1), (20, 80, 1e-9, 1), (20, 80, 1e-9, 2))
    PSEUDO_J, PSEUDO_KB, PSEUDO_RES = 40, 2, 12
    CAPPED_ITER = 20000
    PROBE_J = (20, 80)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.lw = scheme.make_builtin("lax-wendroff", A, LAM)
        shift = rng.uniform(-0.05, 0.05, 2)
        self.re_range = (-1.5 + shift[0], 1.5 + shift[0])
        self.im_range = (-1.5 + shift[1], 1.5 + shift[1])
        self.probes = {
            (J, kb): rng.uniform(1.0, 1.1, 3)
            * np.exp(1j * rng.uniform(-math.pi / 3, math.pi / 3, 3))
            for J in self.PROBE_J for kb in (1, 2)}

    def expect(self) -> None:
        mats = {(J, kb): oracle.lax_wendroff_matrix(J, kb, LAM)
                for J in (20, 40, 80, 160) for kb in (1, 2)}
        self.want_norm = {key: oracle.l2_norm(M) for key, M in mats.items()}
        self.want_radius20 = {
            kb: float(np.max(np.abs(np.linalg.eigvals(mats[20, kb]))))
            for kb in (1, 2)}
        self.want_envelope = {
            (J, n, kb): oracle.power_norms(mats[J, kb], n)
            for J, n, _, kb in self.ENVELOPES}
        M = mats[self.PSEUDO_J, self.PSEUDO_KB]
        re = np.linspace(*self.re_range, self.PSEUDO_RES)
        im = np.linspace(*self.im_range, self.PSEUDO_RES)
        z = re[None, :] + 1j * im[:, None]
        eye = np.eye(self.PSEUDO_J)
        self.want_pseudo = oracle.sigma_min(z[..., None, None] * eye - M)
        self.want_probe = {
            key: oracle.sigma_min(
                zs[:, None, None] * np.eye(key[0]) - mats[key])
            for key, zs in self.probes.items()}

    def ops(self, outdir: str):
        ops = [(f"radius+norm J={J} kb={kb}", self._radius_norm(J, kb, rtol))
               for J, kb, rtol in self.SWEEP]
        ops.append(("capped norm J=80 kb=1", self._norm(80, 1)))
        ops += [(f"envelope J={J} n={n} kb={kb}", self._envelope(J, n, rtol, kb))
                for J, n, rtol, kb in self.ENVELOPES]
        ops.append(("pseudospectrum", self._pseudo))
        ops += [(f"probes J={J} kb={kb}", self._probes(J, kb))
                for J, kb in self.probes]
        return ops

    def _check_norm(self, got: float, J: int, kb: int) -> list[str]:
        want = self.want_norm[J, kb]
        if _rel(got, want) > NORM_RTOL:
            return [f"norm {got!r}, LAPACK {want!r}"]
        return []

    def _radius_norm(self, J: int, kb: int, rtol: float):
        def op():
            M = spectral.assemble_transition_matrix(J, self.lw, kb)
            rho = spectral.spectral_radius(M)
            nrm = spectral.operator_norm_l2(M, rtol=rtol)
            bad = self._check_norm(nrm, J, kb)
            if not rho <= nrm + 1e-10:
                bad.append(f"radius {rho!r} exceeds norm {nrm!r}")
            if J == 20 and abs(rho - self.want_radius20[kb]) > RADIUS20_ATOL:
                bad.append(f"radius {rho!r}, LAPACK {self.want_radius20[kb]!r}")
            return bad
        return op

    def _norm(self, J: int, kb: int):
        def op():
            M = spectral.assemble_transition_matrix(J, self.lw, kb)
            return self._check_norm(spectral.operator_norm_l2(
                M, max_iter=self.CAPPED_ITER), J, kb)
        return op

    def _envelope(self, J: int, n: int, rtol: float, kb: int):
        want = self.want_envelope[J, n, kb]

        def op():
            M = spectral.assemble_transition_matrix(J, self.lw, kb)
            env = spectral.power_norm_envelope(M, n, rtol=rtol)
            bad = [] if env[0] == 1.0 else [f"envelope[0] = {env[0]!r}"]
            worst = float(np.max(np.abs(env - want) / want))
            if len(env) != n + 1 or worst > NORM_RTOL:
                bad.append(f"envelope off LAPACK by {worst:.2e} relative")
            return bad
        return op

    def _check_sigma(self, got, want) -> list[str]:
        dev = np.abs(np.asarray(got) - want) - SIGMA_RTOL * want
        worst = float(np.max(dev))
        return [f"sigma_min off LAPACK by {worst:.2e}"] \
            if worst > SIGMA_ATOL else []

    def _pseudo(self):
        M = spectral.assemble_transition_matrix(self.PSEUDO_J, self.lw,
                                                self.PSEUDO_KB)
        grid = spectral.pseudospectrum_grid(M, self.re_range, self.im_range,
                                            resolution=self.PSEUDO_RES)
        return self._check_sigma(grid.sigma, self.want_pseudo)

    def _probes(self, J: int, kb: int):
        def op():
            A_ = spectral.assemble_transition_matrix(J, self.lw, kb).entries
            eye = np.eye(J)
            got = [spectral.smallest_singular_value(z * eye - A_)
                   for z in self.probes[J, kb]]
            return self._check_sigma(got, self.want_probe[J, kb])
        return op


class Cli:
    """Many short command-line calls through ``transportbc.cli.main(argv)``.

    Why: ``solver`` and ``spectral`` run in the opposite size regime from
    the other two workloads, so per-call overhead dominates: argparse and
    CSV output, the pure-Python xoshiro generator, and
    ``dissipation_and_boundary_form``, which ``energy-check`` recomputes
    for every trial.  A change that speeds up large-J kernels but adds
    per-call cost shows here.  The calls are made in-process with
    ``--out`` into a scratch directory (the console script is not
    installed when the package runs from ``src``).

    The argv list, drawn from the seed:
    - ``verify`` for each builtin and for three custom three-point
      stencils ``(q+c)/2, 1-q, (q-c)/2`` at a seeded lambda, two with
      ``q >= c^2`` (stable, exit 0) and one with ``q < c^2`` (exit 1);
    - ``energy-check`` on each builtin, 200 trials, seeded ``--seed``;
    - ``run --kb 0,1,2`` at J=40 for a seeded kink datum;
    - ``convergence`` on J=10..80 for a seeded datum and kb;
    - ``spectral --J-list 20,40 --kb 1,2``;
    - one of the ``energy-check`` calls again, which must write the same
      bytes.

    Checked: exit codes, a residual <= 1e-12 in ``energy-check``, the
    ``run``/``convergence``/``spectral`` numbers against the oracle, and
    byte-identical output for repeated argv, within a pass and across
    passes.
    """

    name = "cli"
    TRIALS = 200
    RUN_J = 40
    CONV_J = (10, 20, 40, 80)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.calls = [["verify", "--scheme", name] for name in BUILTINS]
        self.custom = {}
        lam = float(rng.uniform(0.5, 0.9))
        c2 = lam * lam
        for q in (rng.uniform(c2 + 0.05, 0.98), rng.uniform(c2 + 0.05, 0.98),
                  c2 * rng.uniform(0.3, 0.8)):
            w = np.array([(q + lam) / 2.0, 1.0 - q, (q - lam) / 2.0]).tolist()
            text = (f"r=1,p=1,a=-1:{w[0]!r},0:{w[1]!r},1:{w[2]!r};"
                    f"vel=1.0;lambda={lam!r}")
            self.custom[text] = w
            self.calls.append(["verify", "--scheme", text])
        for name in BUILTINS:
            self.calls.append(["energy-check", "--scheme", name, "--trials",
                               str(self.TRIALS), "--seed",
                               str(int(rng.integers(0, 2 ** 31)))])
        self.run_datum = str(rng.choice(sorted(KINK_DATA)))
        self.calls.append(["run", "--J", str(self.RUN_J), "--kb", "0,1,2",
                           "--datum", self.run_datum])
        self.conv_datum = str(rng.choice(sorted(KINK_DATA)))
        self.conv_kb = int(rng.integers(1, 3))
        self.calls.append(["convergence", "--J-list",
                           ",".join(map(str, self.CONV_J)), "--kb",
                           str(self.conv_kb), "--datum", self.conv_datum])
        self.calls.append(["spectral", "--J-list", "20,40", "--kb", "1,2"])
        # repeat one energy-check: they cost the same, so the seed does not
        # change how much work a pass holds
        checks = [argv for argv in self.calls if argv[0] == "energy-check"]
        self.calls.append(list(checks[int(rng.integers(0, len(checks)))]))
        # the package's one lazy cache: stability verdicts of stencils
        for name in BUILTINS:
            energy.verify_energy_balance(scheme.make_builtin(name, A, LAM),
                                         np.ones(3))
        self.digests: dict[tuple, str] = {}

    def expect(self) -> None:
        unstable = {text for text, w in self.custom.items()
                    if oracle.symbol_max_modulus(w, 1) > 1.0 + 1e-9}
        self.want_exit = [int(argv[0] == "verify" and argv[2] in unstable)
                          for argv in self.calls]
        weights = oracle.builtin_weights("lax-wendroff", LAM)[2]
        self.want_run = {
            kb: oracle.interval_errors(
                weights, 1, 1, kb, self.RUN_J, 0.5, LAM,
                oracle.PowerKink(0.5, KINK_DATA[self.run_datum]))[2]
            for kb in (0, 1, 2)}
        self.want_conv = oracle.sup_error_table(
            weights, 1, 1, self.conv_kb, self.CONV_J, 0.5, LAM,
            oracle.PowerKink(0.5, KINK_DATA[self.conv_datum]))[0]
        mats = {(J, kb): oracle.lax_wendroff_matrix(J, kb, LAM)
                for J in (20, 40) for kb in (1, 2)}
        self.want_norm = {key: oracle.l2_norm(M) for key, M in mats.items()}
        self.want_radius20 = {
            kb: float(np.max(np.abs(np.linalg.eigvals(mats[20, kb]))))
            for kb in (1, 2)}

    def ops(self, outdir: str):
        return [(" ".join(argv), self._call(i, argv, outdir))
                for i, argv in enumerate(self.calls)]

    def _call(self, index: int, argv: list[str], outdir: str):
        path = os.path.join(outdir, f"call{index}.out")
        want_exit = self.want_exit[index]

        def op():
            code = cli.main(argv + ["--out", path])
            if code != want_exit:
                return [f"exit code {code}, want {want_exit}"]
            with open(path, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            first = self.digests.setdefault(tuple(argv), digest)
            if digest != first:
                return ["output differs from an earlier call with this argv"]
            return self._check_output(argv[0], data.decode())
        return op

    def _check_output(self, command: str, text: str) -> list[str]:
        lines = text.splitlines()
        if command == "energy-check":
            key = "max relative balance residual "
            vals = [float(ln[len(key):]) for ln in lines if ln.startswith(key)]
            if len(vals) != 1 or not vals[0] <= 1e-12:
                return [f"balance residual {vals!r} above 1e-12"]
            return []
        if command == "verify":
            verdict = lines[-1]
            if verdict not in ("all checks passed",
                               "FAIL: amplification symbol exceeds modulus 1"):
                return [f"verify ended with {verdict!r}"]
            return []
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")]
        if command == "run":
            cols = rows[0]
            table = np.array(rows[1:], dtype=float)
            bad = []
            for kb, want in self.want_run.items():
                got = table[:, cols.index(f"numeric_kb{kb}")]
                if float(np.max(np.abs(got - want))) > 1e-12:
                    bad.append(f"kb={kb} final state off the oracle")
            return bad
        if command == "convergence":
            got = [float(row[3]) for row in rows[1:]]
            if len(got) != len(self.want_conv) or any(
                    _rel(g, w) > STEPPER_RTOL
                    for g, w in zip(got, self.want_conv)):
                return [f"sup errors {got!r}, oracle {self.want_conv!r}"]
            return []
        if command == "spectral":
            bad = []
            for J, kb, rho, nrm in rows[1:]:
                J, kb, rho, nrm = int(J), int(kb), float(rho), float(nrm)
                if _rel(nrm, self.want_norm[J, kb]) > NORM_RTOL \
                        or not rho <= nrm + 1e-10:
                    bad.append(f"J={J} kb={kb} rho {rho!r} norm {nrm!r}")
                if J == 20 and abs(rho - self.want_radius20[kb]) \
                        > RADIUS20_ATOL:
                    bad.append(f"J=20 kb={kb} radius {rho!r}")
            return bad
        return []


WORKLOADS = {cls.name: cls for cls in (Refine, Spectra, Cli)}
