"""Outside-in tracing of currentkit: span timers wrapped around the public
functions of each module, installed and removed by the benchmark.

Nothing in the library changes.  A wrapper is rebound in every currentkit
module whose global refers to the original function, because `cli`,
`motion`, `flatnorm` and `scenarios` import names like `evaluate` directly;
methods are patched on their classes.  Spans live in flat arrays until
`take` hands them over; counts are summed per span name at the call
boundary from the arguments and the result.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """In-memory span recorder.

    Each span has a name, a start, an end and a parent.  A thread's first
    open span attaches to `root`: the CLI runs scenarios in a thread pool
    even at --workers 1, and a per-thread stack does not reach the worker,
    so the benchmark points `root` at the open subcommand span.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root = -1
        self._reset()

    def _reset(self):
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[str, Counter] = defaultdict(Counter)

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> float:
        t = time.perf_counter()
        self._stack().pop()
        self.end[sid] = t
        return t - self.start[sid]

    def _count(self, name: str, values: dict):
        with self._lock:
            self.counts[name].update(values)

    @contextmanager
    def span(self, name: str, as_root: bool = False):
        """Span around a block; with `as_root`, spans opened by other
        threads meanwhile become its children."""
        sid = self._open(self._name(name))
        saved = self.root
        if as_root:
            self.root = sid
        try:
            yield
        finally:
            self.root = saved
            self._close(sid)
            self._count(name, {"calls": 1})

    def wrap(self, name: str, fn, count=None):
        """`fn` wrapped in a span named `name`.  `count(args, kwargs,
        result, seconds)` returns the counters of one call."""
        name_id = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._close(sid)
            extra = count(args, kwargs, result, dt) if count else {}
            self._count(name, {"calls": 1, **extra})
            return result

        return traced

    def take(self):
        """Hand over the recorded spans and counts and start afresh."""
        with self._lock:
            out = Spans([self.names[i] for i in range(len(self.names))],
                        np.frombuffer(self.name_id, dtype=np.int32).copy(),
                        np.frombuffer(self.start, dtype=float).copy(),
                        np.frombuffer(self.end, dtype=float).copy(),
                        np.frombuffer(self.parent, dtype=np.int64).copy(),
                        {k: dict(v) for k, v in self.counts.items()})
            self._reset()
        return out


class Spans:
    """Recorded spans as parallel arrays; `parent` is -1 for a root."""

    def __init__(self, names, name_id, start, end, parent, counts=None):
        self.names = list(names)
        self.name_id = np.asarray(name_id, dtype=np.int64)
        self.start = np.asarray(start, dtype=float)
        self.end = np.asarray(end, dtype=float)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.counts = counts or {}

    def __len__(self):
        return self.start.size

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), start=self.start,
                            end=self.end, name_id=self.name_id,
                            parent=self.parent)


def self_times(spans: Spans) -> np.ndarray:
    """Duration of each span minus the summed durations of its direct
    children.  Children never overlap: the CLI blocks while its one worker
    thread runs, so that thread's spans and the main thread's alternate."""
    dur = spans.end - spans.start
    out = dur.copy()
    kids = np.flatnonzero(spans.parent >= 0)
    np.subtract.at(out, spans.parent[kids], dur[kids])
    return out


# ----------------------------------------------------------------------
# what is wrapped, and what each call counts
# ----------------------------------------------------------------------

def _rule_size(r: int, s: int) -> int:
    """Points of the quadrature rule `simplex_rule` uses on an r-simplex."""
    from currentkit.quadrature import grundmann_moller
    return 1 if r == 0 else len(grundmann_moller(r, s)[1])


def _count_evaluate(args, kwargs, result, dt):
    from currentkit.chains import Chain, Leaf
    T = args[0]
    chain = T.chain if isinstance(T, Leaf) else T
    if not isinstance(chain, Chain):
        return {}
    s_order = kwargs.get("s_order", args[2] if len(args) > 2 else 2)
    sub = kwargs.get("subdivision", args[3] if len(args) > 3 else 0)
    n = len(chain) * 2 ** (chain.degree * sub)
    return {"simplices": n, "leaf_s": dt,
            "quad_points": n * _rule_size(chain.degree, s_order)}


def _count_boundary(args, kwargs, result, dt):
    T = args[0]
    chain = getattr(T, "chain", T)
    return {"faces_in": len(chain) * (chain.degree + 1),
            "faces_out": len(result)}


def _count_points(args, kwargs, result, dt):
    return {"points": len(args[1])}


def _count_coefficients_at(args, kwargs, result, dt):
    n = len(args[1])
    return {"points": n, "sampled_points": 0 if args[0].is_polynomial else n}


def _count_pushforward(args, kwargs, result, dt):
    return {"vertices": len(result) * (result.degree + 1), "incl_s": dt}


def _count_flat_norm_lp(args, kwargs, result, dt):
    T, comp = args[0], args[1]
    rows = comp.n_simplices(T.degree)
    return {"rows": rows,
            "cols": 2 * (rows + comp.n_simplices(T.degree + 1)),
            "pivots": result[3]["iterations"], "incl_s": dt}


def _count_simplices_out(args, kwargs, result, dt):
    return {"simplices_out": len(result)}


# (module, attribute, span name, counter); a dotted attribute is a method
WRAPPED = [
    ("exterior", "wedge", "exterior.wedge", None),
    ("exterior", "frame_to_multivector", "exterior.frame_to_multivector",
     None),
    ("exterior", "comass", "exterior.comass", None),
    ("polynomial", "Polynomial.eval_many", "polynomial.eval_many",
     _count_points),
    ("forms", "FormField.coefficients_at", "forms.coefficients_at",
     _count_coefficients_at),
    ("forms", "exterior_derivative", "forms.exterior_derivative", None),
    ("forms", "contract", "forms.contract", None),
    ("forms", "lie_derivative", "forms.lie_derivative", None),
    ("forms", "seminorm_comass", "forms.seminorm", None),
    ("forms", "seminorm_flat", "forms.seminorm", None),
    ("forms", "seminorm_sharp", "forms.seminorm", None),
    ("quadrature", "simplex_rule", "quadrature.simplex_rule", None),
    ("quadrature", "integrate_interval", "quadrature.integrate_interval",
     None),
    ("chains", "evaluate", "chains.evaluate", _count_evaluate),
    ("chains", "boundary", "chains.boundary", _count_boundary),
    ("chains", "mass_chain", "chains.mass_chain", None),
    ("chains", "Chain.subdivided", "chains.subdivided", _count_simplices_out),
    ("chains", "Chain.load", "chains.load", None),
    ("complexes", "freudenthal_complex", "complexes.freudenthal_complex",
     None),
    ("complexes", "SimplicialComplex.boundary_matrix",
     "complexes.boundary_matrix", None),
    ("complexes", "SimplicialComplex.chain_vector", "complexes.chain_vector",
     None),
    ("flatnorm", "flat_norm_lp", "flatnorm.flat_norm_lp",
     _count_flat_norm_lp),
    ("flatnorm", "lp_solve", "flatnorm.lp_solve", None),
    ("flatnorm", "dual_flat_lower_bound", "flatnorm.lower_bounds", None),
    ("flatnorm", "sharp_lower_bound", "flatnorm.lower_bounds", None),
    ("lipschitz", "pushforward_chain", "lipschitz.pushforward_chain",
     _count_pushforward),
    ("lipschitz", "lipschitz_constant", "lipschitz.lipschitz_constant", None),
    ("motion", "transport_derivative", "motion.transport_derivative", None),
    ("motion", "transport_derivative_fd", "motion.transport_derivative_fd",
     None),
    ("motion", "homotopy_residual", "motion.homotopy_residual", None),
    ("motion", "continuity_modulus", "motion.continuity_modulus", None),
    ("motion", "classical_reynolds", "motion.classical_reynolds", None),
    ("motion", "velocity_field", "motion.velocity_field", None),
    ("motion", "Motion.push", "motion.push", None),
    ("scenarios", "load_config", "scenarios.load_config", None),
    ("scenarios", "builtin_scenarios", "scenarios.builtin_scenarios", None),
]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None
            and (name == "currentkit" or name.startswith("currentkit."))]


def rebind(original, replacement) -> list:
    """Point every currentkit global that refers to `original` at
    `replacement`; returns what `restore` needs to undo it."""
    undo = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def patch_method(cls, attr, make_replacement) -> list:
    """Replace a method (plain or classmethod) of `cls` with
    `make_replacement(function)`; returns what `restore` needs."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        new = classmethod(make_replacement(raw.__func__))
    else:
        new = make_replacement(raw)
    setattr(cls, attr, new)
    return [(cls, attr, raw)]


def restore(undo: list):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def install(tracer: Tracer, wrapped=WRAPPED) -> list:
    """Wrap every entry of `wrapped`; returns the undo list."""
    undo = []
    for module_name, attr, span, count in wrapped:
        module = importlib.import_module(f"currentkit.{module_name}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            undo += patch_method(getattr(module, cls_name), meth,
                                 lambda fn, s=span, c=count:
                                 tracer.wrap(s, fn, c))
        else:
            fn = getattr(module, attr)
            undo += rebind(fn, tracer.wrap(span, fn, count))
    return undo


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

SUBCOMMANDS = ("verify", "transport", "flatnorm", "converge")

# (metric, span name, what): "self" sums self time in seconds, "incl"
# sums the durations of the spans, and any other value names a counter
LAYER_METRICS = [
    *[(f"cli.{c}_s", f"cli.{c}", "incl") for c in SUBCOMMANDS],
    ("chains.evaluate.calls", "chains.evaluate", "calls"),
    ("chains.evaluate.self_s", "chains.evaluate", "self"),
    ("chains.evaluate.simplices", "chains.evaluate", "simplices"),
    ("chains.evaluate.quad_points", "chains.evaluate", "quad_points"),
    ("chains.boundary.calls", "chains.boundary", "calls"),
    ("chains.boundary.self_s", "chains.boundary", "self"),
    ("chains.boundary.faces_in", "chains.boundary", "faces_in"),
    ("chains.boundary.faces_out", "chains.boundary", "faces_out"),
    ("chains.subdivided.self_s", "chains.subdivided", "self"),
    ("chains.subdivided.simplices_out", "chains.subdivided", "simplices_out"),
    ("chains.mass_chain.self_s", "chains.mass_chain", "self"),
    ("chains.load.self_s", "chains.load", "self"),
    ("quadrature.simplex_rule.calls", "quadrature.simplex_rule", "calls"),
    ("quadrature.simplex_rule.self_s", "quadrature.simplex_rule", "self"),
    ("quadrature.integrate_interval.calls", "quadrature.integrate_interval",
     "calls"),
    ("polynomial.eval_many.calls", "polynomial.eval_many", "calls"),
    ("polynomial.eval_many.points", "polynomial.eval_many", "points"),
    ("polynomial.eval_many.self_s", "polynomial.eval_many", "self"),
    ("forms.coefficients_at.calls", "forms.coefficients_at", "calls"),
    ("forms.coefficients_at.points", "forms.coefficients_at", "points"),
    ("forms.coefficients_at.sampled_points", "forms.coefficients_at",
     "sampled_points"),
    ("forms.coefficients_at.self_s", "forms.coefficients_at", "self"),
    ("forms.exterior_derivative.self_s", "forms.exterior_derivative", "self"),
    ("forms.contract.self_s", "forms.contract", "self"),
    ("forms.lie_derivative.self_s", "forms.lie_derivative", "self"),
    ("forms.seminorm.self_s", "forms.seminorm", "self"),
    ("exterior.wedge.calls", "exterior.wedge", "calls"),
    ("exterior.wedge.self_s", "exterior.wedge", "self"),
    ("exterior.frame_to_multivector.self_s", "exterior.frame_to_multivector",
     "self"),
    ("exterior.comass.self_s", "exterior.comass", "self"),
    ("lipschitz.pushforward_chain.calls", "lipschitz.pushforward_chain",
     "calls"),
    ("lipschitz.pushforward_chain.self_s", "lipschitz.pushforward_chain",
     "self"),
    ("lipschitz.pushforward_chain.vertices", "lipschitz.pushforward_chain",
     "vertices"),
    ("lipschitz.lipschitz_constant.self_s", "lipschitz.lipschitz_constant",
     "self"),
    *[(f"motion.{f}.self_s", f"motion.{f}", "self")
      for f in ("transport_derivative", "transport_derivative_fd",
                "homotopy_residual", "continuity_modulus",
                "classical_reynolds")],
    ("motion.push.calls", "motion.push", "calls"),
    ("motion.velocity_field.calls", "motion.velocity_field", "calls"),
    *[(f"complexes.{f}.self_s", f"complexes.{f}", "self")
      for f in ("freudenthal_complex", "boundary_matrix", "chain_vector")],
    ("flatnorm.flat_norm_lp.calls", "flatnorm.flat_norm_lp", "calls"),
    ("flatnorm.flat_norm_lp.self_s", "flatnorm.flat_norm_lp", "self"),
    ("flatnorm.flat_norm_lp.rows", "flatnorm.flat_norm_lp", "rows"),
    ("flatnorm.flat_norm_lp.cols", "flatnorm.flat_norm_lp", "cols"),
    ("flatnorm.flat_norm_lp.pivots", "flatnorm.flat_norm_lp", "pivots"),
    ("flatnorm.lp_solve.self_s", "flatnorm.lp_solve", "self"),
    ("flatnorm.lower_bounds.self_s", "flatnorm.lower_bounds", "self"),
]

# (metric, numerator (span, counter), denominator (span, counter)), in
# microseconds per unit; the counters "leaf_s" and "incl_s" are the
# inclusive seconds of leaf-level or outermost calls
LAYER_RATIOS = [
    ("chains.evaluate.us_per_simplex", ("chains.evaluate", "leaf_s"),
     ("chains.evaluate", "simplices")),
    ("lipschitz.pushforward_chain.us_per_vertex",
     ("lipschitz.pushforward_chain", "incl_s"),
     ("lipschitz.pushforward_chain", "vertices")),
    ("flatnorm.flat_norm_lp.us_per_pivot", ("flatnorm.flat_norm_lp", "incl_s"),
     ("flatnorm.flat_norm_lp", "pivots")),
]


def layer_metrics(spans: Spans) -> dict:
    """Per-layer metrics of one traced pass, by metric name."""
    selfs = self_times(spans)
    by_name = {n: i for i, n in enumerate(spans.names)}
    out = {}
    for metric, span, what in LAYER_METRICS:
        nid = by_name.get(span)
        if what == "self":
            out[metric] = (float(selfs[spans.name_id == nid].sum())
                           if nid is not None else 0.0)
        elif what == "incl":
            mine = spans.name_id == nid
            out[metric] = float(np.sum(spans.end[mine] - spans.start[mine]))
        else:
            out[metric] = spans.counts.get(span, {}).get(what, 0)
    for metric, (ns, nc), (ds, dc) in LAYER_RATIOS:
        num = spans.counts.get(ns, {}).get(nc, 0.0)
        den = spans.counts.get(ds, {}).get(dc, 0)
        out[metric] = 1e6 * num / den if den else 0.0
    return out
