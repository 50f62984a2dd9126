"""Tracing smovelab from outside: span wrappers and work counters.

``Tracer.install`` replaces every public function of each layer module
with a wrapper, rebinds every ``from ... import`` alias of it in the other
smovelab modules, and wraps the public methods of the layers' classes
(``Polynomial``'s arithmetic dunders included).  ``uninstall`` puts the
originals back.

A span is recorded when a call crosses into a different layer: name,
start, end, parent span and the request (command) it belongs to.  Spans
are kept in flat arrays and written out by ``write``.  Calls within one
layer record no span, so a layer's self time is its spans' time minus the
time of the spans they caused.  Counters are derived from call arguments
and return values and fire on every call, inside a layer or across.
"""

from __future__ import annotations

import importlib
import inspect
import math
from array import array
from collections.abc import Sized
from time import perf_counter

LAYERS = ("cli", "words", "presentations", "criterion", "slicing", "modmat", "playground", "ring", "statesum")

COUNTERS = (
    "words.letters_in",
    "criterion.instances_built",
    "slicing.moves_built",
    "slicing.moves_replayed",
    "modmat.products",
    "modmat.inversions",
    "modmat.flops_computed",
    "playground.commute_checks",
    "statesum.colorings",
    "statesum.certificate_perms",
    "ring.poly_mul_calls",
)

RING_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__pow__")
PIECE_FUNCTIONS = ("slice_bag", "slice_inverse_pair", "slice_commutator", "slice_product", "connect")


def _letters(args):
    """Materialise iterator arguments once; count the letters handed over."""
    n = 0
    out = []
    for a in args:
        if isinstance(a, str):
            n += len(a)
        elif not isinstance(a, (int, Sized)) and hasattr(a, "__iter__"):
            a = tuple(a)
            n += len(a)
        elif isinstance(a, (tuple, list)):
            n += len(a)
        out.append(a)
    return n, tuple(out)


class Tracer:
    def __init__(self):
        self.layer = -1  # layer currently executing; -1 is the benchmark
        self.span = -1  # innermost open span
        self.request = -1
        self.names = []
        self.name_ids = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_request = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.calls = [0] * len(LAYERS)
        self.busy = [0.0] * len(LAYERS)
        self.self_time = [0.0] * len(LAYERS)
        self.active = [0] * len(LAYERS)
        self.child = []  # time covered by child spans, per open span
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.validating = 0
        self._undo = []

    # -- spans ----------------------------------------------------------------------

    def _enter_span(self, layer, name_id):
        idx = len(self.s_name)
        self.s_name.append(name_id)
        self.s_parent.append(self.span)
        self.s_request.append(self.request)
        self.s_end.append(0.0)
        saved = (self.layer, self.span)
        self.layer, self.span = layer, idx
        self.active[layer] += 1
        self.child.append(0.0)
        t0 = perf_counter()
        self.s_start.append(t0)
        return idx, saved, t0

    def _exit_span(self, layer, idx, saved, t0):
        t1 = perf_counter()
        self.s_end[idx] = t1
        dur = t1 - t0
        self.calls[layer] += 1
        self.self_time[layer] += dur - self.child.pop()
        self.active[layer] -= 1
        if not self.active[layer]:
            self.busy[layer] += dur
        if self.child:
            self.child[-1] += dur
        self.layer, self.span = saved

    def _wrap(self, fn, layer, qualname, pre=None, post=None, scope=False):
        """``pre(args)`` may replace the positional arguments; ``post(args,
        result)`` counts; ``scope`` marks the call as a validation replay."""
        name_id = self.name_ids.setdefault(qualname, len(self.names))
        if name_id == len(self.names):
            self.names.append(qualname)
        tr = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            if scope:
                tr.validating += 1
            try:
                if tr.layer == layer:
                    res = fn(*args, **kwargs)
                else:
                    idx, saved, t0 = tr._enter_span(layer, name_id)
                    try:
                        res = fn(*args, **kwargs)
                    finally:
                        tr._exit_span(layer, idx, saved, t0)
            finally:
                if scope:
                    tr.validating -= 1
            if post is not None:
                post(args, res)
            return res

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    # -- counters ---------------------------------------------------------------------

    def _hooks(self, layer_name, name):
        """(pre, post) counter hooks for one wrapped callable."""
        c = self.counters
        tr = self

        def count(key, n=1):
            c[key] += n

        if layer_name == "words":
            layer = LAYERS.index("words")

            def pre(args):
                if tr.layer == layer:
                    return args
                n, args = _letters(args)
                c["words.letters_in"] += n
                return args

            return pre, None
        post = {
            ("criterion", "build_instance"): lambda a, r: count("criterion.instances_built"),
            ("slicing", "apply_move"): lambda a, r: tr.validating and count("slicing.moves_replayed"),
            ("modmat", "mul"): lambda a, r: (
                count("modmat.products"),
                count("modmat.flops_computed", 2 * a[0].shape[0] * a[0].shape[1] * a[1].shape[1]),
            ),
            ("modmat", "inverse"): lambda a, r: count("modmat.inversions"),
            ("playground", "Backend.check"): lambda a, r: count(
                "playground.commute_checks", len(a[0].assignment) * (len(a[0].assignment) - 1) // 2
            ),
            ("statesum", "state_sum"): lambda a, r: count(
                "statesum.colorings", a[1].color_count ** (len(a[0].edges) + a[0].circles)
            ),
            ("statesum", "certificate"): lambda a, r: count(
                "statesum.certificate_perms", math.factorial(len(a[0].vertices))
            ),
        }
        for m in ("Polynomial.__mul__", "Polynomial.__rmul__"):
            post[("ring", m)] = lambda a, r: count("ring.poly_mul_calls")
        for b in PIECE_FUNCTIONS:
            post[("slicing", b)] = lambda a, r: count("slicing.moves_built", len(r.moves))
        return None, post.get((layer_name, name))

    # -- install / uninstall ---------------------------------------------------------------

    def install(self, package="smovelab"):
        modules = {name: importlib.import_module("%s.%s" % (package, name)) for name in LAYERS}
        pkg = importlib.import_module(package)
        everywhere = list(modules.values()) + [pkg]
        replaced = {}
        for layer, name in enumerate(LAYERS):
            mod = modules[name]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    w = self._wrap(obj, layer, "%s.%s" % (name, attr), *self._hooks(name, attr),
                                   scope=attr == "validate")
                    replaced[id(obj)] = (obj, w)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        wanted = (not meth.startswith("_")) or (name == "ring" and meth in RING_METHODS)
                        if wanted and inspect.isfunction(fn):
                            qual = "%s.%s" % (attr, meth)
                            w = self._wrap(fn, layer, "%s.%s" % (name, qual), *self._hooks(name, qual))
                            setattr(obj, meth, w)
                            self._undo.append((obj, meth, fn))
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- results ------------------------------------------------------------------------------

    def metrics(self):
        out = {}
        for i, name in enumerate(LAYERS):
            out["%s.calls" % name] = self.calls[i]
            out["%s.busy_s" % name] = self.busy[i]
            out["%s.self_s" % name] = self.self_time[i]
        out.update(self.counters)
        built = self.counters["slicing.moves_built"]
        out["slicing.replay_ratio"] = self.counters["slicing.moves_replayed"] / built if built else 0.0
        return out

    def write(self, path):
        """Spans as flat arrays: name, parent, request, start, end."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.s_name, dtype=np.int32),
            parent=np.frombuffer(self.s_parent, dtype=np.int32),
            request=np.frombuffer(self.s_request, dtype=np.int32),
            start=np.frombuffer(self.s_start, dtype=np.float64),
            end=np.frombuffer(self.s_end, dtype=np.float64),
        )
