"""Span tracer that wraps the package's public functions from outside.

Tracing touches no file of the package.  ``Tracer.install`` replaces each
target callable in every ``transportbc`` module that binds it (for example
both ``transportbc.boundary.fill_outflow_ghosts`` and the copy imported into
``transportbc.solver``), or on its class for methods, and ``uninstall`` puts
the originals back.  Each wrapped call records one span
``(name, start, end, parent, op)`` in memory; a layer's self time is its
span's duration minus the durations of its direct child spans.
"""
from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import warnings

# (module, qualified name) of every wrapped callable, in report order.
TARGETS = (
    ("solver", "run_interval"),
    ("solver", "step"),
    ("solver", "reference_values"),
    ("solver", "run_halfline_outflow"),
    ("solver", "error_metrics"),
    ("boundary", "fill_outflow_ghosts"),
    ("boundary", "fill_inflow_ghosts"),
    ("state", "FieldState.copy"),
    ("spectral", "assemble_transition_matrix"),
    ("spectral", "eigenvalues"),
    ("spectral", "operator_norm_l2"),
    ("spectral", "power_norm_envelope"),
    ("spectral", "smallest_singular_value"),
    ("spectral", "pseudospectrum_grid"),
    ("energy", "verify_energy_balance"),
    ("energy", "dissipation_and_boundary_form"),
    ("rng", "Xoshiro256StarStar.symmetric"),
    ("rng", "Xoshiro256StarStar.integer"),
    ("scheme", "check_l2_stability"),
    ("scheme", "consistency_order"),
    ("scheme", "parse_stencil"),
    ("cli", "main"),
)

# Counters recorded at the same boundaries as the spans.
COUNTERS = ("solver.cell_updates", "spectral.operator_norm_l2.unconverged",
            "rng.draws")

CAP_WARNING = "hit its cap"


def _size(matrix) -> int:
    return int(getattr(matrix, "J", None) or len(getattr(matrix, "entries",
                                                         matrix)))


# Call shapes for the baseline cross-check: how to read a call's size from
# its bound arguments.  Only these functions pay for argument binding.
SHAPES = {
    "spectral.eigenvalues": lambda a: f"J={_size(a['matrix'])}",
    "spectral.operator_norm_l2":
        lambda a: f"J={_size(a['matrix'])} rtol={a['rtol']:g}",
    "spectral.power_norm_envelope":
        lambda a: f"J={_size(a['matrix'])} n={a['n_max']} rtol={a['rtol']:g}",
    "spectral.pseudospectrum_grid":
        lambda a: f"J={_size(a['matrix'])} res={a['resolution']}",
    "solver.run_interval": lambda a: f"J={a['grid'].J} record={a['record']}",
    "cli.main": lambda a: _cli_shape(list(a["argv"] or [])),
}


def _cli_shape(argv: list[str]) -> str:
    trials = [argv[i + 1] for i, tok in enumerate(argv[:-1])
              if tok == "--trials"]
    return " ".join(argv[:1] + [f"trials={t}" for t in trials])


class Tracer:
    """Collects spans and counters while installed; one instance per run."""

    package = "transportbc"

    def __init__(self) -> None:
        self.names: list[str] = [f"{m}.{q}" for m, q in TARGETS]
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def _modules(self):
        return [mod for name, mod in list(sys.modules.items())
                if name == self.package or name.startswith(self.package + ".")]

    def install(self) -> None:
        for index, (module, qualname) in enumerate(TARGETS):
            defining = sys.modules[f"{self.package}.{module}"]
            owner_name, _, attr = qualname.rpartition(".")
            name = self.names[index]
            if owner_name:
                owner = getattr(defining, owner_name)
                original = owner.__dict__[attr]
                self._swap(owner, attr, self._wrap(index, name, original))
                continue
            original = getattr(defining, attr)
            wrapper = self._wrap(index, name, original)
            for mod in self._modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)
        cls = sys.modules[f"{self.package}.rng"].Xoshiro256StarStar
        self._swap(cls, "next_u64", self._count_draws(cls.next_u64))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _swap(self, owner, key: str, replacement) -> None:
        self._undo.append((owner, key, vars(owner)[key]))
        setattr(owner, key, replacement)

    def _count_draws(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts["rng.draws"] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, index: int, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        shape_of = SHAPES.get(name)
        signature = inspect.signature(fn) if shape_of else None
        is_step = name == "solver.step"
        is_norm = name == "spectral.operator_norm_l2"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            shape = None
            if shape_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                shape = shape_of(bound.arguments)
            if is_step:
                counts["solver.cell_updates"] += args[0].J
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            caught = None
            start = clock()
            try:
                if is_norm:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        return fn(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, self.op, shape)
                if caught:
                    counts["spectral.operator_norm_l2.unconverged"] += sum(
                        CAP_WARNING in str(w.message) for w in caught)
        return wrapper

    # -- reporting ---------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        for key in self.counts:
            self.counts[key] = 0

    def summarize(self) -> dict:
        """Per-layer self time and calls of the spans recorded since the
        last reset, with the bookkeeping checks.

        ``op_s`` is the total duration of root spans (those with no traced
        parent); the self times of all spans must add up to it.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        negative = 0
        op_s = 0.0
        for k, (index, start, end, parent, _, _) in enumerate(spans):
            own = (end - start) - child[k]
            if own < -1e-9:
                negative += 1
            self_s[index] += own
            calls[index] += 1
            if parent < 0:
                op_s += end - start
        total_self = sum(self_s)
        return {
            "self_s": dict(zip(self.names, self_s)),
            "calls": dict(zip(self.names, calls)),
            "counts": dict(self.counts),
            "spans": len(spans),
            "op_s": op_s,
            "negative_self": negative,
            "consistent": negative == 0
            and abs(total_self - op_s) <= 1e-9 * max(1.0, len(spans)),
        }

    def shape_durations(self) -> dict[str, list[float]]:
        """Durations (children included) of each traced call shape."""
        out: dict[str, list[float]] = {}
        for index, start, end, _, _, shape in self.spans:
            if shape is not None:
                out.setdefault(f"{self.names[index]}[{shape}]", []).append(
                    end - start)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent,op,shape\n")
            for index, start, end, parent, op, shape in self.spans:
                fh.write(f"{self.names[index]},{start!r},{end!r},{parent},"
                         f"{op},{shape or ''}\n")


def median_per_call(durations: dict[str, list[float]]) -> dict[str, dict]:
    return {key: {"median_s": statistics.median(vals), "calls": len(vals)}
            for key, vals in sorted(durations.items())}
