"""Per-layer spans and counters, taken by wrapping dahakz from the outside.

`Tracer.install()` replaces public functions of the dahakz modules with
wrappers that record a span (name, start, end, parent) per call, and two
class methods with call counters; `uninstall()` puts the originals back.
Nothing inside `src/` is changed.  Every binding of a wrapped function is
replaced, including names imported with `from .x import f` into another
dahakz module, so internal calls are seen too.

Layer times are inclusive and count only the outermost call of a layer, so
a recursive or nested call inside the same layer is not counted twice.
Different layers may overlap (linalg runs inside modules.endomorphism).
A `.self_s` metric is span time minus the time of its direct child spans.
Times are reported per op in reference seconds (see refclock.py): each
span of op i is scaled by that op's reference time over its elapsed time.
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter

# layer -> functions whose calls are spans of that layer
SPAN_LAYERS = {
    "kz.series": [("kz", "frobenius_series")],
    "kz.transport": [("kz", "continue_transport")],
    "kz.monodromy": [("kz", "monodromy")],
    "kz.identify": [("kz", "identify"), ("kz", "y_spectrum_check")],
    "kz.oracle": [("kz", "rank_one_oracle")],
    "kz.problem": [("kz", "trig_problem")],
    "modules.fiber": [("modules", "degenerate_fiber"),
                      ("kz", "parabolic_fiber")],
    "modules.intertwiner": [("modules", "intertwiner_matrix")],
    "modules.endomorphism": [("modules", "endomorphism_algebra")],
    "hecke.products": [("hecke", "daha_mul"), ("hecke", "aha_mul")],
    "hecke.rep_check": [("hecke", "polynomial_rep_check")],
    "rings.demazure_x": [("rings", "demazure_x")],
}
# layers made of every public function defined in the module
MODULE_LAYERS = {"linalg": "linalg", "arrangements": "arrangements"}
# path constructors: their result is tagged with the kind of path
PATH_KINDS = {"loop_path": "loop", "reflection_path": "reflection",
              "log_linear_path": "radial"}
# class methods that are counted, not timed (they are called thousands of
# times per op, and a span each would distort the time around them)
COUNTED_METHODS = {
    "kz.a_evals": ("kz", "ConnectionProblem", "a_matrix"),
    "scalars.cyclotomic_inverse_calls": ("scalars", "Cyclotomic", "inverse"),
}

# per-layer metric -> (unit, how it is computed)
PER_LAYER = {
    "kz.series_s": ("s", ("layer", "kz.series")),
    "kz.series_calls": ("count", ("calls", "kz.frobenius_series")),
    "kz.transport.radial_s": ("s", ("name", "kz.transport.radial")),
    "kz.transport.loop_s": ("s", ("name", "kz.transport.loop")),
    "kz.transport.reflection_s": ("s", ("name", "kz.transport.reflection")),
    "kz.transport_paths": ("count", ("calls", "kz.continue_transport")),
    "kz.a_evals": ("count", ("calls", "kz.a_evals")),
    "kz.monodromy.self_s": ("s", ("self", "kz.monodromy")),
    "kz.identify_s": ("s", ("layer", "kz.identify")),
    "kz.oracle_s": ("s", ("layer", "kz.oracle")),
    "kz.problem_s": ("s", ("layer", "kz.problem")),
    "modules.fiber_s": ("s", ("layer", "modules.fiber")),
    "modules.intertwiner_s": ("s", ("layer", "modules.intertwiner")),
    "modules.endomorphism.self_s": ("s", ("self", "modules.endomorphism")),
    "linalg_s": ("s", ("layer", "linalg")),
    "scalars.cyclotomic_inverse_calls": (
        "count", ("calls", "scalars.cyclotomic_inverse_calls")),
    "hecke.products_s": ("s", ("layer", "hecke.products")),
    "hecke.products_calls": ("count", ("layer_calls", "hecke.products")),
    "hecke.rep_check.self_s": ("s", ("self", "hecke.rep_check")),
    "rings.demazure_x_s": ("s", ("layer", "rings.demazure_x")),
    "rings.demazure_x_calls": ("count", ("calls", "rings.demazure_x")),
    "arrangements_s": ("s", ("layer", "arrangements")),
}


class Tracer:
    """Collects spans and counts while installed; one instance per traced pass."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []  # [name, layer, start, end, parent, op]
        self.stack = []
        self.counts = Counter()
        self.op = 0
        self._path_tags = {}
        self._undo = []

    # -- wrappers -------------------------------------------------------------------

    def _span(self, name, layer, fn, name_of=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, \
            time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            counts[name] += 1
            rec = [span_name, layer, clock(), None,
                   stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _tagging(self, kind, fn):
        tags = self._path_tags

        def wrapper(*args, **kwargs):
            path = fn(*args, **kwargs)
            tags[id(path)] = (path, kind)  # the path is kept, so its id stays
            return path
        return wrapper

    def _transport_name(self, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        return "kz.transport." + self._path_tags.get(id(path), (None, "other"))[1]

    # -- install / uninstall ----------------------------------------------------------

    def install(self):
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("dahakz.") and mod is not None}

        def rebind(orig, wrapper):
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

        for layer, targets in SPAN_LAYERS.items():
            for mod_name, fn_name in targets:
                orig = getattr(modules[mod_name], fn_name)
                name_of = self._transport_name if fn_name == "continue_transport" \
                    else None
                rebind(orig, self._span(f"{mod_name}.{fn_name}", layer, orig,
                                        name_of))
        for layer, mod_name in MODULE_LAYERS.items():
            mod = modules[mod_name]
            for fn_name, orig in list(vars(mod).items()):
                if inspect.isfunction(orig) and not fn_name.startswith("_") \
                        and orig.__module__ == mod.__name__:
                    rebind(orig, self._span(f"{mod_name}.{fn_name}", layer, orig))
        for fn_name, kind in PATH_KINDS.items():
            orig = getattr(modules["kz"], fn_name)
            rebind(orig, self._tagging(kind, orig))
        for key, (mod_name, cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self._counted(key, orig))
            self._undo.append((cls, meth, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        self._path_tags.clear()

    # -- results --------------------------------------------------------------------

    def metrics(self, scales) -> dict:
        """Every per-layer metric, per op; span times of op i are multiplied
        by scales[i], its reference time over its elapsed wall time."""
        children = [0.0] * len(self.spans)
        layer_s, layer_calls, name_s, self_s = Counter(), Counter(), Counter(), \
            Counter()
        durations = [(end - start) * scales[op]
                     for _, _, start, end, _, op in self.spans]
        for i, (name, layer, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                children[parent] += durations[i]
            outer = parent
            while outer is not None and self.spans[outer][1] != layer:
                outer = self.spans[outer][4]
            layer_calls[layer] += 1
            if outer is None:
                layer_s[layer] += durations[i]
                name_s[name] += durations[i]
        for i, (_, layer, _, _, _, _) in enumerate(self.spans):
            self_s[layer] += durations[i] - children[i]
        out = {}
        for metric, (unit, (kind, key)) in PER_LAYER.items():
            total = {"layer": layer_s, "name": name_s, "self": self_s,
                     "calls": self.counts, "layer_calls": layer_calls}[kind][key]
            out[metric] = {"value": total / len(scales), "unit": unit}
        return out

    def write_spans(self, path) -> None:
        """Spans as JSON lines; times are wall seconds since the tracer was made."""
        with open(path, "w") as fh:
            for i, (name, _, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "op": op, "name": name,
                                     "start": start - self.t0,
                                     "end": end - self.t0,
                                     "parent": parent}) + "\n")
