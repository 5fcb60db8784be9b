"""Layer tracing of finslab from outside the library.

`install()` wraps public methods on their classes and rebinds public
functions in every finslab module namespace (and module-level dict) that
holds them, so calls made through `from .x import f` are traced as well.
Each wrapper opens a span at call and closes it at return.  A pass over a
workload opens millions of jet spans, so closed spans are folded at once
into per-(parent, name) totals of calls, wall seconds and self seconds
(wall minus the time covered by child spans) instead of being kept one by
one; `snapshot()` hands those totals out at the end of a pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Layer groups reported with a call count and a self time.  A span name's
# group is the part before ":" ("jets.compose:powr" is in "jets.compose").
LAYERS = (
    "jets.mul", "jets.diff", "jets.compose",
    "dsl.jet_o2", "dsl.jet_o3", "dsl.jet_o4", "dsl.value", "dsl.admissible",
    "tensors.fundamental", "tensors.cartan", "tensors.legendre",
    "connection.frame_init", "connection.ginv", "connection.christoffel",
    "connection.jacobi_matrix", "connection.spray_coefficients",
    "curves.dense",
    "geodesics.integrate", "geodesics.reparametrize",
    "geodesics.pregeodesic_residual", "geodesics.project", "geodesics.energy",
    "variational.jacobi_basis", "variational.focal_search",
    "variational.variation", "variational.energy_fd",
    "conformal.scale_metric", "conformal.coincide",
    "cli.load_config",
)

# Frames are told apart by the metric's name and the exact bytes of the
# sample; the order of the frame is not part of the key.
FRAME_KEY = "(metric name, x, y)"


def frame_key(metric, sample) -> tuple:
    return (metric.name, sample.x.tobytes(), sample.y.tobytes())


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # open spans: [name, child seconds]
        self.spans: dict[tuple, list] = {}   # (parent, name) -> [calls, wall, self]
        self.root_s = 0.0                    # wall seconds of outermost spans
        self.counts: dict[str, int] = defaultdict(int)
        self.frame_keys: set = set()         # frames of the current item

    def reset(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.root_s = 0.0
        self.counts.clear()
        self.frame_keys.clear()

    def end_item(self) -> None:
        """Frames are distinct within one experiment run, not across them."""
        self.counts["connection.frames_distinct"] += len(self.frame_keys)
        self.frame_keys.clear()

    def wrap(self, name, fn, before=None, after=None):
        """Traced version of fn.  `name` is a span name or a function of the
        call arguments; `before(parent, args)` and `after(args, result)` feed
        counters."""
        clock = time.perf_counter
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            parent = stack[-1] if stack else None
            if before is not None:
                before(parent[0] if parent else None, args)
            span = [label, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = clock() - start
                stack.pop()
                key = (parent[0] if parent else None, label)
                totals = spans.get(key)
                if totals is None:
                    totals = spans[key] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += wall
                totals[2] += wall - span[1]
                if parent is not None:
                    parent[1] += wall
                else:
                    self.root_s += wall
            if after is not None:
                after(args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        return {"spans": [[p, n, *t] for (p, n), t in sorted(
                    self.spans.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
                "root_s": self.root_s, "counts": dict(self.counts)}


def layer_totals(snapshot: dict) -> dict[str, tuple[int, float]]:
    """Calls and self seconds per layer group of one snapshot."""
    out = {layer: [0, 0.0] for layer in LAYERS}
    for _parent, name, calls, _wall, self_s in snapshot["spans"]:
        group = name.split(":")[0]
        if group in out:
            out[group][0] += calls
            out[group][1] += self_s
    return {k: (v[0], v[1]) for k, v in out.items()}


def _rebind(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "finslab" and not modname.startswith("finslab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap finslab's public layer boundaries with spans of `tracer`."""
    import finslab.cli
    from finslab import (conformal, connection, curves, dsl, geodesics, jets,
                         tensors, variational)

    counts = tracer.counts
    Jet = jets.Jet

    # jets: only jet-by-jet products run the multiply plan
    mul_terms: dict = {}

    def count_terms(parent, args):
        a, b = args
        space = a.space if a.space.order <= b.space.order else b.space
        terms = mul_terms.get(space)
        if terms is None:
            terms = mul_terms[space] = len(space.mul_plan()[0])
        counts["jets.mul_terms"] += terms

    plain_mul = Jet.__mul__
    traced_mul = tracer.wrap("jets.mul", plain_mul, before=count_terms)

    def mul(self, other):
        if isinstance(other, Jet):
            return traced_mul(self, other)
        return plain_mul(self, other)

    Jet.__mul__ = Jet.__rmul__ = mul
    Jet.diff = tracer.wrap("jets.diff", Jet.diff)
    Jet.reciprocal = tracer.wrap("jets.compose:reciprocal", Jet.reciprocal)
    for fname in ("powr", "exp", "log", "sqrt", "sin", "cos"):
        plain = getattr(jets, fname)
        traced = tracer.wrap(f"jets.compose:{fname}", plain)

        def compose(u, *rest, _plain=plain, _traced=traced):
            return (_traced if isinstance(u, Jet) else _plain)(u, *rest)

        _rebind(plain, functools.wraps(plain)(compose))

    # dsl
    M = dsl.MetricDefinition

    def jet_name(self, sample, order):
        return f"dsl.jet_o{order}"

    def newton_eval(parent, args):
        if parent == "geodesics.project":
            counts["geodesics.newton_evals"] += 1

    def sample_attempt(parent, args):
        if parent == "dsl.sample_admissible":
            counts["dsl.sample_attempts"] += 1

    def sample_accepted(args, result):
        counts["dsl.sample_accepted"] += len(result)

    M.jet = tracer.wrap(jet_name, M.jet, before=newton_eval)
    M.value = tracer.wrap("dsl.value", M.value)
    M.admissible = tracer.wrap("dsl.admissible", M.admissible, before=sample_attempt)
    _rebind(dsl.sample_admissible, tracer.wrap(
        "dsl.sample_admissible", dsl.sample_admissible, after=sample_accepted))

    # tensors
    for fname, span in (("fundamental_tensor", "tensors.fundamental"),
                        ("cartan_tensor", "tensors.cartan"),
                        ("legendre", "tensors.legendre")):
        plain = getattr(tensors, fname)
        _rebind(plain, tracer.wrap(span, plain))

    # connection
    F = connection.ConnectionFrame

    def frame_built(args, result):
        tracer.frame_keys.add(frame_key(args[0].metric, args[0].sample))

    F.__init__ = tracer.wrap("connection.frame_init", F.__init__, after=frame_built)
    F.ginv_jets = tracer.wrap("connection.ginv", F.ginv_jets)
    F.christoffel = tracer.wrap("connection.christoffel", F.christoffel)
    F.jacobi_matrix = tracer.wrap("connection.jacobi_matrix", F.jacobi_matrix)
    _rebind(connection.spray_coefficients, tracer.wrap(
        "connection.spray_coefficients", connection.spray_coefficients))

    # curves: dense output
    C = curves.DiscreteCurve
    for meth in ("position", "velocity", "acceleration"):
        setattr(C, meth, tracer.wrap(f"curves.dense:{meth}", getattr(C, meth)))

    # geodesics
    def rk4_steps(args, curve):
        counts["geodesics.rk4_steps"] += curve.grid.size - 1

    for fname, span, after in (
            ("integrate_geodesic", "geodesics.integrate", rk4_steps),
            ("reparametrize_conformal", "geodesics.reparametrize", None),
            ("pregeodesic_residual", "geodesics.pregeodesic_residual", None),
            ("project_to_lightcone", "geodesics.project", None),
            ("energy", "geodesics.energy", None)):
        plain = getattr(geodesics, fname)
        _rebind(plain, tracer.wrap(span, plain, after=after))

    # variational
    def jacobi_steps(args, sols):
        counts["variational.jacobi_steps"] += sols[0].grid.size - 1

    def focal_found(args, points):
        counts["variational.focal_points"] += len(points)

    for fname, span, after in (
            ("integrate_jacobi_basis", "variational.jacobi_basis", jacobi_steps),
            ("find_focal_points", "variational.focal_search", focal_found),
            ("first_variation", "variational.variation:first", None),
            ("second_variation", "variational.variation:second", None),
            ("energy_derivative_fd", "variational.energy_fd", None)):
        plain = getattr(variational, fname)
        _rebind(plain, tracer.wrap(span, plain, after=after))

    # conformal and cli
    for module, fname, span in (
            (conformal, "scale_metric", "conformal.scale_metric"),
            (conformal, "lightcones_coincide", "conformal.coincide"),
            (finslab.cli, "load_config", "cli.load_config")):
        plain = getattr(module, fname)
        _rebind(plain, tracer.wrap(span, plain))
