"""Per-layer tracing of powerwalk from outside the package.

``install()`` wraps every public function of the layer modules at every name
it is bound under (``cli`` imports ``iterate_search``, ``compute_alpha`` and
others by name, the package re-exports them), plus the lazy
``SpectralModel.distinct_phases`` property. Each call records a span: its
function, start, end and the span it was called from. Spans stay in memory
and are folded per function into calls, inclusive and self time (self time
excludes child spans) and the work counts below.

``layer_metrics()`` turns those per-function aggregates into the per-layer
metrics the benchmark reports. It imports nothing from powerwalk, so the
parent process can use it without tracing anything.
"""

from __future__ import annotations

import functools
import inspect
import time

PHASE_COLLAPSE = "search.SpectralModel.distinct_phases"

# Self time of every wrapped function is summed into one metric of its own
# module. Where the benchmark splits a module over several metrics, the
# functions of each part are listed; every other function of a module goes to
# the module's default metric, so one added or renamed later still lands in its
# layer. The bucket metrics and cli.self_s add up to the traced wall time.
SPLITS = {
    "search.iterate_s": ("search.iterate_search",),
    "search.model_s": ("search.build_model",),
    "search.phase_collapse_s": (PHASE_COLLAPSE,),
    "search.alpha_s": (
        "search.compute_alpha",
        "search.alpha_estimate",
        "search.secular_alpha",
        "search.dense_alpha",
        "search.reduced_operator",
        "search.trajectory_alpha",
    ),
    "tulsi.iterate_s": ("tulsi.iterate_tulsi",),
    "tulsi.alpha_s": (
        "tulsi.compute_alpha_delta",
        "tulsi.secular_alpha_delta",
        "tulsi.alpha_delta_estimate",
    ),
    "torus.mode_cosines_s": ("torus.mode_cosines",),
    "fullwalk.spectrum_s": (
        "fullwalk.walk_spectrum",
        "fullwalk.walk_matrix",
        "fullwalk.coin_matrix",
        "fullwalk.shift_matrix",
        "fullwalk.oracle_matrix",
    ),
    "fullwalk.apply_s": (
        "fullwalk.apply_shift",
        "fullwalk.apply_coin",
        "fullwalk.apply_walk",
        "fullwalk.apply_oracle",
        "fullwalk.shift_permutation",
    ),
    "szegedy.chain_s": (
        "szegedy.random_symmetric_chain",
        "szegedy.cycle_chain",
        "szegedy.complete_chain",
        "szegedy.lazy_chain",
        "szegedy.load_chain_csv",
    ),
    "szegedy.eigenphases_s": (
        "szegedy.nontrivial_eigenphases",
        "szegedy.nontrivial_basis",
        "szegedy.walk_apply",
        "szegedy.walk_matrix",
        "szegedy.predicted_nontrivial_eigenphases",
    ),
}
DEFAULT_BUCKET = {
    "search": "search.accounting_s",
    "tulsi": "tulsi.accounting_s",
    "sums": "sums.grid_sums_s",
    "torus": "torus.rest_s",
    "fullwalk": "fullwalk.report_s",
    "szegedy": "szegedy.build_s",
    "records": "records.emit_s",
}
LAYER_MODULES = tuple(DEFAULT_BUCKET)
BINDING_MODULES = ("__init__",) + LAYER_MODULES + ("cli",)
BUCKET_OF = {fn: metric for metric, fns in SPLITS.items() for fn in fns}


def bucket_of(name: str) -> str:
    """The time metric a wrapped function's self time is summed into."""
    return BUCKET_OF.get(name) or DEFAULT_BUCKET[name.split(".", 1)[0]]


def _search_steps(bound):
    """Steps and mode-steps Q*(2N-1): work fixed by the problem, not by the
    engine's internal state size."""
    q, n = bound.arguments["Q"], bound.arguments["model"].grid.vertex_count
    return {"steps": q, "mode_steps": q * (2 * n - 1)}


def _tulsi_steps(bound):
    """As _search_steps, plus the ancilla's phase-pi mode: Q*2N."""
    q, n = bound.arguments["Q"], bound.arguments["tm"].base.grid.vertex_count
    return {"steps": q, "mode_steps": q * 2 * n}


def _dense_counts(bound):
    grid, t = bound.arguments["grid"], bound.arguments["t"]
    return {"dim": grid.vertex_count * 4**t}


def _sums_counts(bound):
    return {"modes": bound.arguments["grid"].vertex_count - 1}


# Work counts taken from a call's arguments (and, for emitters, its result).
ARG_COUNTS = {
    "search.iterate_search": _search_steps,
    "tulsi.iterate_tulsi": _tulsi_steps,
    "fullwalk.walk_spectrum": _dense_counts,
    "sums.grid_sums": _sums_counts,
}
RESULT_COUNTS = {
    "records.to_csv": lambda text: {"bytes": len(text)},
    "records.to_json": lambda text: {"bytes": len(text)},
}


class Tracer:
    """Span recorder shared by every wrapper installed in one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []  # fn, start, end, parent
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        fn_id = len(self.names)
        self.names.append(name)
        arg_counts = ARG_COUNTS.get(name)
        result_counts = RESULT_COUNTS.get(name)
        signature = inspect.signature(fn) if arg_counts else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((fn_id, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (fn_id, start, end, parent)
            if arg_counts:
                self._count(name, arg_counts(signature.bind(*args, **kwargs)))
            if result_counts:
                self._count(name, result_counts(result))
            return result

        return traced

    def _count(self, name: str, values: dict) -> None:
        slot = self.counts.setdefault(name, {})
        for key, value in values.items():
            if key == "dim":
                slot[key] = max(slot.get(key, 0), value)
            else:
                slot[key] = slot.get(key, 0) + value

    def aggregate(self) -> dict:
        """Per-function calls, inclusive and self seconds, work counts, and
        the summed duration of root spans (those with no traced caller)."""
        per_fn = {}
        child_time = [0.0] * len(self.spans)
        root_s = 0.0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                root_s += end - start
        for index, (fn_id, start, end, _) in enumerate(self.spans):
            slot = per_fn.setdefault(
                self.names[fn_id], {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            slot["calls"] += 1
            slot["incl_s"] += end - start
            slot["self_s"] += end - start - child_time[index]
        for name, values in self.counts.items():
            per_fn.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            per_fn[name].update(values)
        return {"functions": per_fn, "root_s": root_s, "spans": len(self.spans)}


def install(package) -> Tracer:
    """Wrap the public functions of the layer modules of ``package`` at every
    module attribute bound to them, and the phase-collapse property."""
    import importlib

    tracer = Tracer()
    modules = {
        name: package if name == "__init__" else importlib.import_module(
            f"{package.__name__}.{name}"
        )
        for name in BINDING_MODULES
    }
    wrapped = {}
    for short in LAYER_MODULES:
        module = modules[short]
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                wrapped[id(obj)] = tracer.wrap(f"{short}.{attr}", obj)
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                setattr(module, attr, wrapped[id(obj)])

    model_cls = modules["search"].SpectralModel
    original = model_cls.__dict__["distinct_phases"]
    prop = functools.cached_property(tracer.wrap(PHASE_COLLAPSE, original.func))
    prop.__set_name__(model_cls, "distinct_phases")
    model_cls.distinct_phases = prop
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    trace: dict, traced_wall_s: float, untraced_wall_s: float, records: dict
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from one traced round.

    ``records`` counts the rows the round emitted: ``search`` is every row
    that ran a plain search record (search and tulsi rows), ``tulsi`` the
    tulsi rows. Those are the bases of the per-record ratios.
    """
    fns = trace["functions"]

    def fn(name: str, key: str) -> float:
        return fns.get(name, {}).get(key, 0)

    out: dict[str, tuple[float, str]] = {
        metric: (0.0, "s") for metric in (*SPLITS, *DEFAULT_BUCKET.values())
    }
    for name, slot in fns.items():
        metric = bucket_of(name)
        out[metric] = (out[metric][0] + slot["self_s"], "s")

    for layer, alpha_fn, iterate_fn in (
        ("search", "search.compute_alpha", "search.iterate_search"),
        ("tulsi", "tulsi.compute_alpha_delta", "tulsi.iterate_tulsi"),
    ):
        steps = fn(iterate_fn, "steps")
        mode_steps = fn(iterate_fn, "mode_steps")
        solves = fn(alpha_fn, "calls")
        out[f"{layer}.iterate_steps"] = (steps, "count")
        out[f"{layer}.mode_steps"] = (mode_steps, "count")
        out[f"{layer}.mode_steps_per_s"] = (
            _ratio(mode_steps, out[f"{layer}.iterate_s"][0]),
            "1/s",
        )
        out[f"{layer}.records"] = (records[layer], "count")
        out[f"{layer}.alpha_solves"] = (solves, "count")
        out[f"{layer}.alpha_solves_per_record"] = (
            _ratio(solves, records[layer]),
            "ratio",
        )
    out["tulsi.useful_step_ratio"] = (
        _ratio(
            out["tulsi.iterate_steps"][0],
            out["tulsi.iterate_steps"][0] + out["search.iterate_steps"][0],
        ),
        "ratio",
    )
    modes = fn("sums.grid_sums", "modes")
    out["sums.modes"] = (modes, "count")
    out["sums.modes_per_s"] = (_ratio(modes, out["sums.grid_sums_s"][0]), "1/s")
    out["torus.mode_cosines_calls"] = (fn("torus.mode_cosines", "calls"), "count")
    out["fullwalk.dense_dim_max"] = (fn("fullwalk.walk_spectrum", "dim"), "count")
    out["fullwalk.shift_permutation_builds"] = (
        fn("fullwalk.shift_permutation", "calls"),
        "count",
    )
    out["records.bytes"] = (
        fn("records.to_csv", "bytes") + fn("records.to_json", "bytes"),
        "B",
    )
    out["cli.self_s"] = (traced_wall_s - trace["root_s"], "s")
    out["trace.spans"] = (trace["spans"], "count")
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return out
