"""Outside-in tracing of the srq layers.

The tracer wraps public entry points of the ``srq`` modules at run time and
restores them afterwards; no file of the library changes.  Every wrapped call
records a span ``(label, start, end, parent)``.  ``Quaternion`` construction,
product and inverse only bump counters: a span per call would swamp the run.

Spans stay in memory until :meth:`Tracer.take` hands them out at the end of a
round.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


def _star_label(args):
    other = args[1] if len(args) > 1 else None
    return "series.star" if type(other) is type(args[0]) else "series.scale"


def _note_real_coeffs(tracer, args, result):
    if all(c.x == 0.0 and c.y == 0.0 and c.z == 0.0 for c in args[0].coeffs):
        tracer.tally["series.evaluate.real_coeff"] += 1


def _note_star_products(tracer, args, result):
    a, b = args[0], args[1]
    if type(b) is type(a) and a.coeffs and b.coeffs:
        tracer.tally["series.star.coeff_products"] += len(a.coeffs) * len(b.coeffs)


def _note_new_quotient(tracer, args, result):
    obj = args[0] if result is None else result
    tracer.values["rational.sym_degree"].append(obj.sym.degree)


#: (label, owner, attribute names, note).  The label may depend on the
#: arguments; the note runs after the call returns, outside the span.
SPANS = (
    ("series.evaluate", "srq.series:RegularPolynomial", ("evaluate",), _note_real_coeffs),
    (_star_label, "srq.series:RegularPolynomial", ("__mul__",), _note_star_products),
    ("series.scale", "srq.series:RegularPolynomial", ("__rmul__",), None),
    ("series.symmetrization", "srq.series:RegularPolynomial", ("symmetrization",), None),
    ("series.calculus", "srq.series:RegularPolynomial",
     ("remainder", "cullen_derivative", "spherical_expansion"), None),
    ("rational.construct", "srq.rational:RegularQuotient", ("__init__", "from_expanded"),
     _note_new_quotient),
    ("rational.construct", "srq.rational:RegularQuotient",
     ("__mul__", "__rmul__", "__add__", "__sub__", "__rsub__", "__neg__", "reciprocal",
      "conjugate", "symmetrization", "remainder", "cullen_derivative"), None),
    ("rational.evaluate", "srq.rational:RegularQuotient", ("evaluate",), None),
    ("rational.transform", "srq.rational:RegularQuotient", ("evaluate_via_transform",), None),
    ("rational.zero_set", "srq.rational:RegularQuotient", ("sphere_zero_set",), None),
    ("rational.zero_set", "srq.rational", ("sphere_zero_set",), None),
    ("rational.durand_kerner", "srq.rational", ("durand_kerner",), None),
    ("fractional.normal_form", "srq.fractional", ("normal_form",), None),
    ("fractional.from_normal_form", "srq.fractional", ("from_normal_form",), None),
    ("fractional.action", "srq.fractional", ("right_action", "left_action"), None),
    ("geometry.moebius_map", "srq.geometry", ("regular_moebius_map",), None),
    ("geometry.point", "srq.geometry",
     ("poincare_distance", "regular_moebius", "classical_moebius"), None),
    ("verify.run_all", "srq.verify", ("run_all",), None),
    (lambda args: "verify." + args[0], "srq.verify", ("run_suite",), None),
    ("verify.check", "srq.verify",
     ("check_schwarz_pick", "check_zero_case", "check_modulus_product",
      "check_reg_preservation", "check_slice_regularity"), None),
    ("expression.parse", "srq.expression", ("parse_polynomial",), None),
    ("cli.main", "srq.cli", ("main",), None),
)

#: Counter-only targets on the quaternion layer.
COUNTERS = (
    ("quaternion.new", "__init__"),
    ("quaternion.mul", "__mul__"),
    ("quaternion.inverse", "inverse"),
)


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs span and counter wrappers on the loaded ``srq`` modules."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tally = Counter()
        self.errors = Counter()
        self.values = defaultdict(list)
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "srq" or name.startswith("srq."))]
        for label, owner, attrs, note in SPANS:
            target = _resolve(owner)
            for attr in attrs:
                self._patch(target, attr, lambda fn: self._span(label, fn, note), modules)
        quaternion = sys.modules["srq.quaternion"].Quaternion
        for label, attr in COUNTERS:
            self._patch(quaternion, attr, lambda fn: self._counter(label, fn), [])

    def uninstall(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def _patch(self, target, attr, make, modules):
        raw = vars(target)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        # every alias (``__call__ = evaluate``) and every ``from x import y``
        # copy must point at the wrapper, or calls would bypass it
        for holder in [target, *modules]:
            for name, value in list(vars(holder).items()):
                if value is raw:
                    self._restore.append((holder, name, raw))
                    setattr(holder, name, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _span(self, label, fn, note):
        spans = self.spans
        stack = self.stack
        errors = self.errors
        clock = time.perf_counter
        dynamic = callable(label)

        def wrapper(*args, **kwargs):
            name = label(args) if dynamic else label
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if note is not None:
                note(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, label, fn):
        tally = self.tally

        def wrapper(*args):
            tally[label] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -----------------------------------------------------------

    def take(self):
        """Hand out the recorded spans and counters and start afresh."""
        out = (self.spans[:], Counter(self.tally), Counter(self.errors),
               {k: list(v) for k, v in self.values.items()})
        self.spans.clear()
        self.tally.clear()
        self.errors.clear()
        self.values.clear()
        return out


def self_times(spans):
    """Per label: [count, self seconds, inclusive seconds].

    A span's self time is its duration minus the time covered by its children.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (label, start, end, _) in enumerate(spans):
        entry = stats[label]
        entry[0] += 1
        entry[1] += (end - start) - covered[i]
        entry[2] += end - start
    return stats


def self_time_between(spans, first, last, labels):
    """Self seconds of ``labels`` among spans[first:last]."""
    covered = defaultdict(float)
    for _, start, end, parent in spans[first:last]:
        if parent >= first:
            covered[parent] += end - start
    return sum((end - start) - covered[i]
               for i, (label, start, end, _) in enumerate(spans[first:last], first)
               if label in labels)
