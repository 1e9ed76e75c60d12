"""Span tracer for the traced benchmark run, installed from outside ``src/``.

``Tracer.install`` wraps, in every ``pacope`` module namespace, each
function that the module resolves from another ``pacope`` module, plus each
function in the module's own ``__all__`` (same-module calls go through the
module's globals too, so those calls are seen as well); ``Tracer.active``
rebinds the names to the wrappers for the duration of one op. A few methods and
private functions that no namespace rebinding can reach are hooked by name;
any of them that no longer exists is reported, not fatal. Every span is keyed
by the callable's *defining* module and qualified name, so moving or renaming
a helper keeps its time inside the right layer.

Spans (name, resolving module, start, end, parent, op) are kept in memory and
written as JSON lines by ``Tracer.write``. ``layer_metrics`` derives the
per-layer self times and counts from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import statistics
import sys
from time import perf_counter

METHOD_HOOKS = (
    "CalibratedPredictor.dump",
    "CalibratedPredictor.load",
    "CalibratedPredictor.interval_batch",
)
PRIVATE_HOOKS = ("bench._predictor_metrics",)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _layer(name: str, via: str) -> str:
    # A private helper module (``_gd``) belongs to the layer that calls it.
    layer = name.split(".", 1)[0]
    return via if layer.startswith("_") else layer


def _counts(name: str, args, result, variance_floor: float) -> dict | None:
    """Work counts read from a traced call's arguments and return value."""
    losses = getattr(result, "train_losses", None)
    if losses is not None:
        epochs = sum(len(a) for a in losses)
        lowered = sum(int((a[1:] < a[:-1]).sum()) for a in losses)
        return {"epochs": epochs, "steps": epochs - len(losses), "lowered": lowered}
    if name.endswith("rejection_sample"):
        return {"offered": len(args[0]), "accepted": len(result),
                "violations": int(result.n_violations)}
    if name.startswith("baselines.") and "weights" in name:
        return {"zeros": int(result[1])}
    if name.startswith("baselines.") and "hull" in name:
        return {"zeros": int(result.zero_denominator_count)}
    if name.endswith("pac_threshold"):
        return {"thresholds": 1, "trivial": int(math.isinf(result))}
    if name.startswith("behavior."):
        diagnostics = getattr(result, "diagnostics", None)
        if diagnostics is not None:
            return {"clamped": int(diagnostics.variance_clamped)}
        if isinstance(result, tuple) and len(result) == 2:
            # The raw (unclamped) Gaussian policy fit: (weights, variance).
            return {"clamped": int(result[1] < variance_floor)}
    return None


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, variance_floor: float) -> None:
        """``variance_floor`` is the clamp a behavior-policy fit is held to."""
        self.variance_floor = variance_floor
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._hooks: list[tuple] = []
        self.op = -1
        self.missing_hooks: list[str] = []
        self.count_errors = 0

    def _wrap(self, fn, name: str, via: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, via, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            try:
                span[6] = _counts(name, args, result, self.variance_floor)
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                self.count_errors += 1
            return result

        return traced

    def install(self, package) -> None:
        """Build the wrappers; ``active`` switches them in and out."""
        prefix = package.__name__ + "."
        modules = [package] + [
            mod for key, mod in sorted(sys.modules.items()) if key.startswith(prefix)
        ]
        for mod in modules:
            own = set(getattr(mod, "__all__", ()))
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or not obj.__module__.startswith(package.__name__):
                    continue
                if obj.__module__ != mod.__name__ or attr in own:
                    name = f"{_short(obj.__module__)}.{obj.__qualname__}"
                    self._hooks.append((mod, attr, obj, self._wrap(obj, name, _short(mod.__name__))))
        for hook in PRIVATE_HOOKS:
            mod_name, attr = hook.split(".")
            mod = importlib.import_module(f"{package.__name__}.{mod_name}")
            obj = getattr(mod, attr, None)
            if inspect.isfunction(obj):
                self._hooks.append((mod, attr, obj, self._wrap(obj, hook, mod_name)))
            else:
                self.missing_hooks.append(hook)
        for hook in METHOD_HOOKS:
            cls_name, attr = hook.split(".")
            cls = getattr(package, cls_name, None)
            raw = cls.__dict__.get(attr) if isinstance(cls, type) else None
            if raw is None:
                self.missing_hooks.append(hook)
                continue
            name = f"{_short(cls.__module__)}.{hook}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name, "method"))
            else:
                wrapped = self._wrap(raw, name, "method")
            self._hooks.append((cls, attr, raw, wrapped))

    @contextlib.contextmanager
    def active(self, op: int):
        """Trace op ``op``: rebind every hooked name for the duration."""
        self.op = op
        for owner, attr, _, wrapped in self._hooks:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._hooks:
                setattr(owner, attr, original)
            self.op = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, via, start, end, parent, op, counts in self.spans:
                fh.write(json.dumps({"name": name, "via": via, "start": start, "end": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


# Per-layer metrics: (metric, layer, substring of the span name or None for
# the whole layer). Self time is a span's duration minus its child spans.
TIME_METRICS = (
    ("quantile.fit_s", "quantile", None),
    ("baselines.reward_fit_s", "baselines", ("reward", "_gd.")),
    ("baselines.weights_s", "baselines", ("weights",)),
    ("baselines.hull_s", "baselines", ("hull",)),
    ("behavior.fit_s", "behavior", None),
    ("core.load_csv_s", "core", ("load_csv",)),
    ("core.predictor_io_s", "calibrate", (".dump", ".load")),
    ("rejection.bound_s", "rejection", ("bound", "weight_from")),
    ("rejection.sample_s", "rejection", ("rejection_sample",)),
    ("calibrate.score_s", "calibrate", ("nonconformity",)),
    ("calibrate.k_s", "calibrate", ("quantile_k",)),
    ("calibrate.threshold_s", "calibrate", ("threshold",)),
    ("synthenv.sample_s", "synthenv", ("sample",)),
    ("bench.eval_s", "bench", ("_predictor_metrics", "evaluate")),
    ("bench.self_s", "bench", None),
    ("cli.self_s", "cli", None),
)


def _matches(name: str, layer: str, span_layer: str, parts) -> bool:
    if span_layer != layer:
        return False
    return parts is None or any(p in name for p in parts)


def layer_metrics(spans: list[list], op_times: list[float]) -> tuple[dict, dict]:
    """Per-layer metrics and each layer's share of traced op time."""
    n_ops = len(op_times)
    self_time = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_time[parent] -= end - start
    per_op = {metric: [0.0] * n_ops for metric, _, _ in TIME_METRICS}
    shares: dict[str, float] = {}
    totals: dict[str, float] = {}
    for (name, via, _, _, _, op, counts), own in zip(spans, self_time):
        if not 0 <= op < n_ops:
            continue
        layer = _layer(name, via)
        shares[layer] = shares.get(layer, 0.0) + own
        for metric, m_layer, parts in TIME_METRICS:
            if _matches(name, m_layer, layer, parts):
                per_op[metric][op] += own
        if layer == "quantile" and "fit" in name:
            totals["fit_calls"] = totals.get("fit_calls", 0) + 1
        if layer == "baselines" and "hull" in name:
            totals["hull_calls"] = totals.get("hull_calls", 0) + 1
        for key, value in (counts or {}).items():
            totals[key] = totals.get(key, 0) + value
    out = {metric: (statistics.median(v) if v else 0.0, "s") for metric, v in per_op.items()}

    def ratio(num: str, den: str) -> float:
        return totals.get(num, 0) / totals[den] if totals.get(den) else 0.0

    def mean(key: str) -> float:
        return totals.get(key, 0) / n_ops if n_ops else 0.0

    out.update({
        "quantile.fit_calls": (mean("fit_calls"), "count"),
        "quantile.epochs": (mean("epochs"), "count"),
        "quantile.step_accept_ratio": (ratio("lowered", "steps"), "ratio"),
        "baselines.hull_calls": (mean("hull_calls"), "count"),
        "baselines.zero_denominators": (mean("zeros"), "count"),
        "behavior.variance_clamped": (mean("clamped"), "count"),
        "rejection.accept_ratio": (ratio("accepted", "offered"), "ratio"),
        "rejection.violations": (mean("violations"), "count"),
        "calibrate.trivial_ratio": (ratio("trivial", "thresholds"), "ratio"),
    })
    total_op = sum(op_times)
    layer_share = {k: v / total_op for k, v in sorted(shares.items())} if total_op else {}
    return out, layer_share
