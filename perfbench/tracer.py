"""Span recorder that times calls into the library's public functions.

Tracing is done from outside the library: `Tracer.install` rebinds each
target function in every ``effectframes`` module that holds it (and
replaces the target methods on their classes), so intra-module calls are
timed as well.  Spans (name, start, end, parent) are kept in memory; a
span's self time is its duration minus the durations of its direct
children.  `Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter_ns

MODULES = ("operators", "effects", "augmented", "cones", "frames", "cauchy", "cli")

# Functions timed by the traced run, as ``<module>.<name>`` or
# ``<module>.<Class>.<method>``; ``operators.OperatorBasis`` times the
# constructor, which certifies linear independence through an SVD.
TARGETS = (
    "operators.eig_hermitian",
    "operators.change_of_basis",
    "operators.orthonormal_operator_basis",
    "operators.OperatorBasis",
    "operators.real_coordinates",
    "operators.hs_inner",
    "frames.reconstruct_density",
    "frames.frame_vector",
    "effects.is_effect",
    "effects.random_mic_pom",
    "effects.random_density",
    "effects.verification_effects",
    "effects.pom_from_jsonable",
    "augmented.augmented_basis_from_onb",
    "augmented.validate_augmented",
    "cones.intersection_span_certificate",
    "cones.cone_membership",
    "cones.interior_point_Edelta",
    "cones.nnls",
    "cones.verify_certificate",
    "cones.certificate_to_jsonable",
    "cones.certificate_from_jsonable",
    "cli.main",
    "cauchy.check_linear",
    "cauchy.ExtensionView.f_real",
    "cauchy.ExtensionView.minimal_modulus",
    "cauchy.unboundedness_witness",
    "cauchy.check_condition",
)


def _resolve(target: str):
    """(owner, attribute, original) for a target name."""
    parts = target.split(".")
    module = importlib.import_module(f"effectframes.{parts[0]}")
    if len(parts) == 2:
        obj = getattr(module, parts[1])
        if isinstance(obj, type):
            return obj, "__init__", obj.__dict__["__init__"]
        return module, parts[1], obj
    cls = getattr(module, parts[1])
    return cls, parts[2], cls.__dict__[parts[2]]


class Tracer:
    """Records spans for the TARGETS while installed.

    `counts` holds the number of calls per target name, the number of
    those calls that raised (``<name>.raised``), and the outcome counters
    filled by the result hooks below.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            nnls_before = counts["cones.nnls"]
            counts[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(counts, result, counts["cones.nnls"] > nnls_before)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target wherever an effectframes module holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        holders = [sys.modules["effectframes"]] + [
            importlib.import_module(f"effectframes.{m}") for m in MODULES
        ]
        for target in TARGETS:
            owner, attr, original = _resolve(target)
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in holders:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- summaries ---------------------------------------------------------

    def self_ns(self) -> dict:
        """Self time in ns per span name: duration minus direct children."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0) + (end - start) - child_ns[idx]
        return out


def _membership_hook(counts: Counter, result, used_nnls: bool) -> None:
    if result is not None:
        counts["cones.cone_membership.admitted"] += 1
        if used_nnls:
            counts["cones.nnls.admitted"] += 1


def _witness_hook(counts: Counter, result, used_nnls: bool) -> None:
    counts["cauchy.unboundedness_witness.steps"] += result.steps


_RESULT_HOOKS = {
    "cones.cone_membership": _membership_hook,
    "cauchy.unboundedness_witness": _witness_hook,
}
