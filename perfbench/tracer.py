"""Spans around calls into the package's public functions, taken from
outside the package.

``Tracer.install`` replaces each listed function by a timing wrapper in
every ``mvsr.*`` module namespace that binds it, so calls made through
``from .x import y`` bindings are caught as well as calls from the
benchmark. A span records its name, start, end, parent span and job id;
spans stay in memory until ``write_spans``. A function's self time is its
span's duration minus the time covered by its child spans. Work counts
(candidates, kept, classes, ...) are computed by hooks from the arguments
and the result after the span has closed, and the hook's own time is kept
out of the parent's self time. The tropical operations run per sample, so
they are aggregated into a call count and a total instead of spans.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

SPANNED = {
    "tensor": ("check_universal_property", "bimorphisms", "tensor_product",
               "congruence_closure", "scalar_structures",
               "enumerate_modules"),
    "semimodule": ("hom_set", "minimal_generating_set", "free_semimodule",
                   "check_semimodule"),
    "projective": ("are_isomorphic", "row_space",
                   "is_projective_retract_oracle",
                   "is_projective_matrix_criterion"),
    "matrix": ("idempotent_matrices",),
    "grothendieck": ("enumerate_projective_classes",
                     "grothendieck_completion"),
    "snf": ("smith_normal_form",),
    "mv": ("check_mv_axioms", "reduct_vee_odot", "reduct_wedge_oplus",
           "gamma_property_report"),
    "semiring": ("check_semiring_axioms",),
    "jsonio": ("load_algebra", "canonical_dumps"),
    "cli": ("main",),
}
AGGREGATED = {"tropical": ("sample_trop", "trop_meet", "trop_prod")}


class Frame:
    __slots__ = ("name", "id", "child", "notes")

    def __init__(self, name: str, span_id: int):
        self.name = name
        self.id = span_id
        self.child = 0.0
        self.notes: list = []


def _join_irreducible_count(size: int, add, zero: int) -> int:
    """Elements other than zero that are not a join of two others."""
    reducible = {add[a][b] for a in range(size) for b in range(size)
                 if add[a][b] != a and add[a][b] != b}
    return sum(1 for x in range(size) if x != zero and x not in reducible)


class Tracer:
    def __init__(self):
        self.stack: List[Frame] = []
        self.spans: List[tuple] = []
        self.job = -1
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._bindings: List[tuple] = []

    # ----- installation --------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers; the first call builds them and finds every
        module namespace that binds each function."""
        if not self._bindings:
            self._bind_all()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in reversed(self._bindings):
            setattr(mod, attr, original)

    def _bind_all(self) -> None:
        hooks = _hooks()
        for module, names in list(SPANNED.items()) + list(AGGREGATED.items()):
            mod = importlib.import_module(f"mvsr.{module}")
            for name in names:
                original = getattr(mod, name)
                span = f"{module}.{name}"
                if module in AGGREGATED:
                    wrapper = self._aggregated(module, original)
                else:
                    hook = hooks.get(span)
                    sig = inspect.signature(original) if hook else None
                    wrapper = self._spanned(span, original, hook, sig)
                self._find_bindings(original, wrapper)

    def _find_bindings(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mvsr"
                                   or mod_name.startswith("mvsr.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._bindings.append((mod, attr, original, wrapper))

    # ----- wrappers --------------------------------------------------------

    def _spanned(self, span: str, f: Callable, hook, sig):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = Frame(span, len(tracer.spans))
            tracer.spans.append(None)
            tracer._depth[span] += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer._close(frame, parent, start, end)
            if hook is not None:
                t = perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, frame, parent, bound.arguments, result)
                if parent is not None:
                    parent.child += perf_counter() - t
            return result

        return wrapper

    def _aggregated(self, module: str, f: Callable):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                d = perf_counter() - start
                tracer.counts[f"{module}.ops"] += 1
                tracer.inclusive[module] += d
                tracer.self_time[module] += d
                if tracer.stack:
                    tracer.stack[-1].child += d

        return wrapper

    def _close(self, frame: Frame, parent: Optional[Frame], start: float,
               end: float) -> None:
        duration = end - start
        span = frame.name
        self.spans[frame.id] = (span, start, end,
                                parent.id if parent else None, self.job)
        self.calls[span] += 1
        self.self_time[span] += duration - frame.child
        self._depth[span] -= 1
        if self._depth[span] == 0:
            self.inclusive[span] += duration
        if parent is not None:
            parent.child += duration

    # ----- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Every per-function and per-module figure, by metric name."""
        out: Dict[str, float] = {}
        for module, names in SPANNED.items():
            layer_self = 0.0
            for name in names:
                span = f"{module}.{name}"
                out[f"{span}.calls"] = self.calls.get(span, 0)
                out[f"{span}.s"] = self.inclusive.get(span, 0.0)
                out[f"{span}.self_s"] = self.self_time.get(span, 0.0)
                layer_self += out[f"{span}.self_s"]
            out[f"{module}.self_s"] = layer_self
        for module in AGGREGATED:
            out[f"{module}.s"] = self.inclusive.get(module, 0.0)
            out[f"{module}.self_s"] = self.self_time.get(module, 0.0)
        out.update(self.counts)
        for name in ("tensor.uniqueness.candidates", "tropical.ops"):
            out.setdefault(name, 0)
        for span, keys in _COUNTED.items():
            for key in keys:
                out.setdefault(f"{span}.{key}", 0)
        for code in range(4):
            out.setdefault(f"cli.exit_code.{code}", 0)
        out["semimodule.hom_set.kept_ratio"] = _ratio(
            out["semimodule.hom_set.kept"],
            out["semimodule.hom_set.candidates"])
        out["projective.are_isomorphic.hit_ratio"] = _ratio(
            out["projective.are_isomorphic.hits"],
            out["projective.are_isomorphic.calls"])
        out["projective.deciders.s"] = (
            out["projective.is_projective_retract_oracle.s"]
            + out["projective.is_projective_matrix_criterion.s"])
        out["mv.reduct.s"] = (out["mv.reduct_vee_odot.s"]
                              + out["mv.reduct_wedge_oplus.s"])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----- work counts ------------------------------------------------------------

_COUNTED = {
    "tensor.bimorphisms": ("candidates", "kept"),
    "tensor.tensor_product": ("subsets", "classes"),
    "tensor.enumerate_modules": ("modules",),
    "semimodule.hom_set": ("candidates", "kept"),
    "projective.are_isomorphic": ("size_rejects", "hits"),
    "matrix.idempotent_matrices": ("candidates", "kept"),
    "grothendieck.enumerate_projective_classes": ("classes", "relations"),
    "mv.gamma_property_report": ("samples",),
    "jsonio.canonical_dumps": ("bytes",),
}


def _hooks():
    def bimorphisms(tr, frame, parent, a, result):
        m, n, c = a["m"], a["n"], a["c_size"]
        ji = (_join_irreducible_count(m.size, m.add, m.zero)
              * _join_irreducible_count(n.size, n.add, n.zero))
        tr.counts["tensor.bimorphisms.candidates"] += c ** ji
        tr.counts["tensor.bimorphisms.kept"] += len(result)
        if parent is not None and parent.name == "tensor.check_universal_property":
            parent.notes.append((c, len(result)))

    def universal_property(tr, frame, parent, a, result):
        t = a["t"]
        ji = _join_irreducible_count(t.class_count, t.join_table, t.zero_class)
        tr.counts["tensor.uniqueness.candidates"] += sum(
            kept * c ** ji for c, kept in frame.notes)

    def tensor_product(tr, frame, parent, a, result):
        tr.counts["tensor.tensor_product.subsets"] += \
            1 << (a["m"].size * a["n"].size)
        tr.counts["tensor.tensor_product.classes"] += result.class_count

    def enumerate_modules(tr, frame, parent, a, result):
        tr.counts["tensor.enumerate_modules.modules"] += len(result)

    def minimal_generating_set(tr, frame, parent, a, result):
        if parent is not None and parent.name == "semimodule.hom_set":
            parent.notes.append(len(result))

    def hom_set(tr, frame, parent, a, result):
        gens = frame.notes[0]
        tr.counts["semimodule.hom_set.candidates"] += a["n"].size ** gens
        tr.counts["semimodule.hom_set.kept"] += len(result)

    def are_isomorphic(tr, frame, parent, a, result):
        if a["m"].size != a["n"].size:
            tr.counts["projective.are_isomorphic.size_rejects"] += 1
        if result is not None:
            tr.counts["projective.are_isomorphic.hits"] += 1

    def idempotent_matrices(tr, frame, parent, a, result):
        tr.counts["matrix.idempotent_matrices.candidates"] += \
            a["s"].size ** (a["n"] * a["n"])
        tr.counts["matrix.idempotent_matrices.kept"] += len(result)

    def projective_classes(tr, frame, parent, a, result):
        prefix = "grothendieck.enumerate_projective_classes"
        tr.counts[f"{prefix}.classes"] += len(result.classes)
        tr.counts[f"{prefix}.relations"] += len(result.sum_relations)

    def gamma_report(tr, frame, parent, a, result):
        tr.counts["mv.gamma_property_report.samples"] += a["samples"]

    def canonical_dumps(tr, frame, parent, a, result):
        tr.counts["jsonio.canonical_dumps.bytes"] += len(result.encode())

    def cli_main(tr, frame, parent, a, result):
        tr.counts[f"cli.exit_code.{result}"] += 1

    return {
        "tensor.bimorphisms": bimorphisms,
        "tensor.check_universal_property": universal_property,
        "tensor.tensor_product": tensor_product,
        "tensor.enumerate_modules": enumerate_modules,
        "semimodule.minimal_generating_set": minimal_generating_set,
        "semimodule.hom_set": hom_set,
        "projective.are_isomorphic": are_isomorphic,
        "matrix.idempotent_matrices": idempotent_matrices,
        "grothendieck.enumerate_projective_classes": projective_classes,
        "mv.gamma_property_report": gamma_report,
        "jsonio.canonical_dumps": canonical_dumps,
        "cli.main": cli_main,
    }
