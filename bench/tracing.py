"""Span recording around the public functions of every uwbrelay module.

The recorder lives entirely in the benchmark: `Tracer.install` replaces
each public function of the traced modules with a wrapper that records a
span (layer, function name, start, end, parent span, op index).  Names
re-bound by `from ... import` in other modules (for example
`uwbrelay.experiments.optimize_pdf` or `uwbrelay.cli.sweep_rho`) are
replaced as well, so a call is recorded whichever name it goes through.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("svchannel", "rates", "optimizer", "experiments", "configfile",
          "svgplot", "cli")

# Functions the per-layer metrics are computed from.  A rename in the
# program must show up as a loud failure, not as a layer that reads zero.
REQUIRED = {
    "svchannel": ("sample_impulse_response", "discretize_taps",
                  "apply_pathloss", "dft_response"),
    "rates": ("pdf_rate", "cutset_rate"),
    "optimizer": ("optimize_pdf", "optimize_degraded", "optimize_cutset",
                  "brute_force_oracle"),
    "experiments": ("build_instance", "run_trial", "sweep_rho"),
    "configfile": ("load_config",),
    "svgplot": ("sweep_chart",),
    "cli": ("main",),
}


class MissingFunctionError(RuntimeError):
    """A function the per-layer metrics depend on no longer exists."""


@dataclass
class Span:
    index: int
    parent: int | None
    layer: str
    name: str
    op: int
    start: float
    end: float = 0.0
    # counts read from the call's arguments and return value
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def _settings(args, kwargs, position):
    from uwbrelay.optimizer import OptimizerSettings
    settings = kwargs.get("settings")
    if settings is None and len(args) > position:
        settings = args[position]
    return settings or OptimizerSettings()


def _optimizer_info(args, kwargs, result) -> dict:
    """Solve counts from the result plus table sizes computed from the
    settings and block size (the program does not report them)."""
    block = args[0].block_size
    settings = _settings(args, kwargs, 2)
    grid = settings.tone_grid_points
    offsets_1d = 21  # _refine_offsets: 21 points per free axis
    info = {"solves": result.iterations, "unconverged": int(not result.converged)}
    if result.objective == "pdf":
        # the (a, b) engine refines over 21 x 21 offsets, its full-decode
        # sub-engine over 21; the main engine's solves are its lambda trace
        # plus one greedy solve
        main = len(result.lambda_trace) + 1
        sub = result.iterations - main
        info["coarse_points"] = block * (grid * grid + grid)
        info["coarse_table_bytes"] = 2 * 8 * block * grid * grid
        info["refine_points"] = (settings.refine_steps * block
                                 * (main * offsets_1d ** 2 + sub * offsets_1d))
    else:
        info["coarse_points"] = block * grid
        info["coarse_table_bytes"] = 2 * 8 * block * grid
        info["refine_points"] = (settings.refine_steps * block
                                 * result.iterations * offsets_1d)
    return info


def _impulse_info(args, kwargs, result) -> dict:
    return {"paths": int(result.delays.size)}


def _discretize_info(args, kwargs, result) -> dict:
    """Share of the path energy beyond the last kept tap, from the
    arguments alone: paths with floor(delay / period) >= max_taps."""
    impulse, period, max_taps = args[0], args[1], args[2]
    energy = np.abs(impulse.gains) ** 2
    dropped = energy[np.floor(impulse.delays / period) >= max_taps].sum()
    return {"dropped_energy_share": float(dropped / energy.sum())}


def _run_trial_info(args, kwargs, result) -> dict:
    return {"product_used": int(bool(result.flags["cutset_product_candidate_used"]))}


INFO = {
    ("optimizer", "optimize_pdf"): _optimizer_info,
    ("optimizer", "optimize_degraded"): _optimizer_info,
    ("optimizer", "optimize_cutset"): _optimizer_info,
    ("svchannel", "sample_impulse_response"): _impulse_info,
    ("svchannel", "discretize_taps"): _discretize_info,
    ("experiments", "run_trial"): _run_trial_info,
}


class Tracer:
    """Records spans while `enabled`; `install` wraps the program."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.op = -1
        self.found: dict[str, list[str]] = {}
        self.rebound: list[str] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        extract = INFO.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = self._stack[-1].index if self._stack else None
            span = Span(len(self.spans), parent, layer, name, self.op, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span.info = extract(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "uwbrelay") -> None:
        """Wrap every public function defined in each layer module and
        every name bound to one of them anywhere in the package.  Raises
        MissingFunctionError when a REQUIRED function is absent."""
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            names = []
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(layer, name, obj))
                    names.append(name)
            self.found[layer] = sorted(names)
        missing = [f"{layer}.{name}" for layer, names in REQUIRED.items()
                   for name in names if name not in self.found[layer]]
        if missing:
            raise MissingFunctionError(
                "traced functions not found in the program: " + ", ".join(missing))
        holders = [importlib.import_module(package), *modules.values()]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._restore.append((holder, attr, obj))
                    setattr(holder, attr, entry[1])
                    if obj.__module__ != holder.__name__:
                        self.rebound.append(f"{holder.__name__}.{attr}")

    def uninstall(self) -> None:
        for holder, attr, obj in reversed(self._restore):
            setattr(holder, attr, obj)
        self._restore.clear()


def layer_table(spans, ops: int) -> dict:
    """Per-op sums over the spans of `ops` traced ops: self time per layer
    and per optimizer, call and solve counts, and the computed sizes."""
    selfs = self_times(spans)
    per = max(ops, 1)
    table = {}

    def put(name, value):
        table[name] = value / per

    def pick(layer, name=None):
        return [(s, t) for s, t in zip(spans, selfs)
                if s.layer == layer and (name is None or s.name == name)]

    for key, fn in (("pdf", "optimize_pdf"), ("df", "optimize_degraded"),
                    ("cutset", "optimize_cutset")):
        rows = pick("optimizer", fn)
        put(f"optimizer.{key}.self_s", sum(t for _, t in rows))
        put(f"optimizer.{key}.solves", sum(s.info["solves"] for s, _ in rows))
        put(f"optimizer.{key}.calls", len(rows))
    solved = [s for s, _ in pick("optimizer") if "solves" in s.info]
    put("optimizer.unconverged", sum(s.info["unconverged"] for s in solved))
    put("optimizer.coarse_points", sum(s.info["coarse_points"] for s in solved))
    put("optimizer.refine_points", sum(s.info["refine_points"] for s in solved))
    table["optimizer.coarse_table_mb"] = max(
        (s.info["coarse_table_bytes"] for s in solved), default=0) / 1e6
    pdf_total = sum(s.duration for s, _ in pick("optimizer", "optimize_pdf"))
    put("optimizer.pdf.inclusive_s", pdf_total)
    oracle = pick("optimizer", "brute_force_oracle")
    put("optimizer.oracle.self_s", sum(t for _, t in oracle))
    put("optimizer.oracle.calls", len(oracle))

    channel = pick("svchannel")
    put("svchannel.busy_s", sum(t for _, t in channel))
    put("svchannel.calls", len(channel))
    draws = [s.info["paths"] for s, _ in pick("svchannel", "sample_impulse_response")]
    table["svchannel.paths_per_draw"] = sum(draws) / len(draws) if draws else 0.0
    shares = [s.info["dropped_energy_share"]
              for s, _ in pick("svchannel", "discretize_taps")]
    table["svchannel.dropped_energy_share"] = (sum(shares) / len(shares)
                                               if shares else 0.0)

    rates_rows = pick("rates")
    put("rates.busy_s", sum(t for _, t in rates_rows))
    put("rates.calls", len(rates_rows))

    put("experiments.build_instance_s",
        sum(s.duration for s, _ in pick("experiments", "build_instance")))
    put("experiments.sweep.self_s",
        sum(t for s, t in pick("experiments")
            if s.name in ("sweep_rho", "sweep_distance")))
    trials = [s.info["product_used"] for s, _ in pick("experiments", "run_trial")]
    table["experiments.cutset_product_share"] = (sum(trials) / len(trials)
                                                 if trials else 0.0)

    put("configfile.load_s",
        sum(s.duration for s, _ in pick("configfile", "load_config")))
    put("svgplot.chart_s",
        sum(s.duration for s, _ in pick("svgplot", "sweep_chart")))
    put("cli.self_s", sum(t for _, t in pick("cli")))
    return table
