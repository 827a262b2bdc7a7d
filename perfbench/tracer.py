"""Per-layer spans recorded from outside the program.

A traced run replaces the program's public entry points with timing
wrappers and restores them afterwards. A function is replaced under every
name that refers to it in any `regbound` module, because several modules
import functions by name (`fuzz.betti_table`, `hilbert.msaturate`,
`bounds.filter_regular_lsop`, ...) and a call looks the name up where it is
made. Methods are replaced on their class. A span's self time is its wall
time minus the time of the spans it encloses.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

_MARK = "_perfbench_span"


# Hooks called with (tracer, args, kwargs) before the traced call, or with
# (tracer, args, result) after it; they read the program's own caches to
# tell a cache hit from a computed result.
def _gb_before(t, args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("order", "degrevlex")
    t.counts["groebner.gb.hits"] += isinstance(order, str) and ("gb", order) in args[0]._cache


def _gb_after(t, args, result):
    t.counts["groebner.gb.basis_len"] += len(result)


def _numerator_before(t, args, kwargs):
    from regbound.groebner import Ideal

    pivot = args[1] if len(args) > 1 else kwargs.get("pivot", "frequent")
    obj = args[0]
    t.counts["hilbert.numerator.hits"] += (
        isinstance(obj, Ideal) and ("hs_numerator", pivot) in obj._cache
    )


def _mult_before(t, args, kwargs):
    alg, var, m = args[:3]
    t.counts["oracle.mult_matrix.hits"] += (var, m) in alg._mult


def _rank_before(t, args, kwargs):
    rows, cols = args[0].shape
    t.counts["oracle.rank.cells"] += rows * cols
    t.counts["oracle.rank.max_side"] = max(t.counts["oracle.rank.max_side"], rows, cols)


def _betti_before(t, args, kwargs):
    I = args[0]
    order = kwargs.get("order", args[2] if len(args) > 2 else "degrevlex")
    max_dim = kwargs.get("max_dim", args[1] if len(args) > 1 else None)
    t.counts["oracle.betti.hits"] += ("betti", order, max_dim) in I._cache


def _filter_after(t, args, result):
    t.counts["groebner.lsop.filter_tests"] += 1
    t.counts["groebner.lsop.retries"] += not result


def targets():
    """(span name or None, owner, attribute, before hook, after hook).

    A None span name wraps the call for its hooks only: its time stays in
    the enclosing span.
    """
    from regbound import bounds, fuzz, groebner, hilbert, oracle

    return [
        ("groebner.gb", groebner.Ideal, "groebner_basis", _gb_before, _gb_after),
        ("groebner.mingens", groebner.Ideal, "minimal_generators", None, None),
        ("groebner.colon", groebner, "colon", None, None),
        ("groebner.msaturate", groebner, "msaturate", None, None),
        ("groebner.lsop", groebner, "filter_regular_lsop", None, None),
        (None, groebner, "is_filter_regular", None, _filter_after),
        ("hilbert.numerator", hilbert, "numerator_full", _numerator_before, None),
        ("oracle.rank", oracle, "rank_mod_p", _rank_before, None),
        ("oracle.strand", oracle.QuotientAlgebra, "strand_rank", None, None),
        ("oracle.mult_matrix", oracle.QuotientAlgebra, "mult_matrix", _mult_before, None),
        ("oracle.taylor_cap", oracle, "taylor_cap", None, None),
        ("oracle.nullspace", oracle, "nullspace_mod_p", None, None),
        ("oracle.betti", oracle, "betti_table", _betti_before, None),
        ("bounds.invariants", bounds, "gather_invariants", None, None),
        ("bounds.cs_recursive", bounds, "cs_recursive_bound", None, None),
        ("fuzz.trial", fuzz, "run_trial", None, None),
    ]


def _program_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "regbound" or name.startswith("regbound."))]


class Tracer:
    """Span stack, self times and counters for one traced pass at a time."""

    def __init__(self):
        self._stack: list[float] = []  # child time accumulated per open span
        self._installed: list[tuple] = []  # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def _wrap(self, span, fn, before, after):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(tracer, args, kwargs)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                start = perf_counter()
                tracer._stack.append(0.0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    tracer.self_s[span] += elapsed - tracer._stack.pop()
                    if tracer._stack:
                        tracer._stack[-1] += elapsed
                    tracer.calls[span] += 1
            if after:
                after(tracer, args, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = _program_modules()
        for span, owner, attr, before, after in targets():
            original = getattr(owner, attr)  # AttributeError: target list is stale
            wrapper = self._wrap(span, original, before, after)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if any(v is original for v in vars(m).values())
            ]
            for mod in owners:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._installed.append((mod, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        if self._stack:
            raise RuntimeError("span stack not empty after a traced pass")
        return False

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass recorded since the last reset."""
        def ratio(hits, span):
            return self.counts[hits] / self.calls[span] if self.calls[span] else 0.0

        out: dict[str, float] = {}
        for span, *_ in targets():
            if span is not None:
                out[f"{span}.calls"] = self.calls[span]
                out[f"{span}.self_s"] = self.self_s[span]
        for name in ("groebner.gb.basis_len", "groebner.lsop.filter_tests",
                     "groebner.lsop.retries", "oracle.rank.cells", "oracle.rank.max_side"):
            out[name] = self.counts[name]
        for span in ("groebner.gb", "hilbert.numerator", "oracle.mult_matrix", "oracle.betti"):
            out[f"{span}.hit_ratio"] = ratio(f"{span}.hits", span)
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def installed_wrappers() -> list[str]:
    """Names in the program that still hold a tracing wrapper."""
    found = []
    for mod in _program_modules():
        for name, value in vars(mod).items():
            if getattr(value, _MARK, False):
                found.append(f"{mod.__name__}.{name}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{name}.{attr}"
                          for attr, v in vars(value).items() if getattr(v, _MARK, False)]
    return found
