"""Benchmark workloads: seeded inputs, one pass over them, and the checks on
the program's outputs.

Every input is generated here from the workload seed as ideal text, which
the program parses as `regbound analyze` reads a file. The shapes (number
of variables and generator degrees) are fixed per workload and the seed
draws the coefficients, so all seeds ask for the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from collections import defaultdict
from itertools import combinations_with_replacement, product
from math import prod
from time import perf_counter

PRIME = 32003
DEFAULT_SEED = 1  # the seed whose output digests are stored in reference.json

# Per-instance shapes (n; generator degrees). Dense random forms of these
# degrees are complete intersections for all but a vanishing share of
# coefficient choices, so every seed gives the same amount of work and the
# known answers d = n - k, e = prod(degrees), reg(S/I) = sum(degrees - 1).
ZERODIM_SHAPES = ((6, (2,) * 6), (5, (2, 2, 3, 3, 3)), (4, (3, 3, 4, 4)), (4, (3, 3, 3, 3)))
POSDIM_SHAPES = ((5, (3, 3)), (5, (2, 2, 3)), (5, (2, 4)), (5, (2, 2, 2)))
# The four instances of the ROADMAP baseline table, traced once by
# `run.py --scale-reference`; far too slow for the gated runs.
SCALE_SHAPES = ((5, (3, 3, 3)), (6, (2, 2, 2, 2)), (6, (2,) * 6), (5, (3,) * 5))
# The acceptance suite's two fuzz sessions: (trials, dimension filter).
FUZZ_SESSIONS = ((200, "le1"), (100, "ge2"))

QUICK_ZERODIM = ((3, (2, 2, 2)),)
QUICK_POSDIM = ((4, (2, 2)),)
QUICK_FUZZ = ((8, "le1"), (4, "ge2"))


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _monomial_text(exps) -> str:
    return "*".join(
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e
    )


def form_text(n: int, degree: int, rng: random.Random) -> str:
    """A dense random form: every coefficient uniform in F_p, redrawn if all zero."""
    monos = []
    for combo in combinations_with_replacement(range(n), degree):
        exps = [0] * n
        for v in combo:
            exps[v] += 1
        monos.append(exps)
    while True:
        terms = []
        for exps in monos:
            c = rng.randrange(PRIME)
            if c:
                terms.append(f"{c}*{_monomial_text(exps)}")
        if terms:
            return " + ".join(terms)


def ideal_text(n: int, degrees, rng: random.Random) -> str:
    lines = [f"ring n={n} p={PRIME}"]
    lines.extend(form_text(n, d, rng) for d in degrees)
    return "\n".join(lines) + "\n"


def instance_rng(*labels) -> random.Random:
    # a str seed is hashed with SHA-512, so it gives the same stream in every process
    return random.Random(":".join(map(str, labels)))


def dimension_errors(n, degrees, d, e) -> list[str]:
    """Disagreements with what k dense random forms of these degrees give:
    dimension max(n - k, 0) and, for k <= n (a complete intersection),
    multiplicity prod(degrees)."""
    k = len(degrees)
    reasons = []
    if d != max(n - k, 0):
        reasons.append(f"dimension {d}, expected {max(n - k, 0)}")
    if k <= n and e != prod(degrees):
        reasons.append(f"multiplicity {e}, complete intersection has {prod(degrees)}")
    return reasons


def exact_errors(n, degrees, exact_reg) -> list[str]:
    """The exact oracle must have run and, for a complete intersection,
    found reg(S/I) = sum(degrees - 1)."""
    if exact_reg is None:
        return ["exact_reg is None after exact=True (oracle budget error swallowed)"]
    reg = sum(x - 1 for x in degrees)
    if len(degrees) <= n and exact_reg != reg:
        return [f"exact reg(S/I) {exact_reg}, complete intersection has {reg}"]
    return []


class Failures:
    """Attempted and failed instances, each failure with its reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, where: str, reasons: list[str]):
        if reasons:
            self.failed += 1
            self.reasons.extend(f"{where}: {r}" for r in reasons)


class AnalyzeWorkload:
    """`analyze` (optionally `--exact`) over a fixed corpus of ideals."""

    def __init__(self, name: str, seed: int, shapes, exact: bool, reference=None):
        from regbound.groebner import parse_ideal_text

        self.name = name
        self.seed = seed
        self.shapes = tuple(shapes)
        self.exact = exact
        self.reference = reference
        self.parsed = [
            parse_ideal_text(ideal_text(n, degs, instance_rng(name, seed, k)))
            for k, (n, degs) in enumerate(self.shapes)
        ]

    def run_pass(self, failures: Failures) -> list[float]:
        """Analyze every instance once, from fresh Ideal objects so that no
        per-ideal cache survives from an earlier pass; returns per-instance
        wall times."""
        from regbound.bounds import analyze
        from regbound.groebner import GenericityError, Ideal, InternalLimitError
        from regbound.hilbert import InvariantError

        times = []
        for k, (shape, parsed) in enumerate(zip(self.shapes, self.parsed)):
            where = f"{self.name}[{k}] n={shape[0]} degrees={shape[1]}"
            failures.attempted += 1
            start = perf_counter()
            try:
                report = analyze(Ideal(parsed.ring, parsed.generators), exact=self.exact)
                doc = report.to_json_dict()
            except (GenericityError, InternalLimitError, InvariantError) as exc:
                times.append(perf_counter() - start)
                failures.add(where, [f"raised {type(exc).__name__}: {exc}"])
                continue
            times.append(perf_counter() - start)
            failures.add(where, self._check(shape, report, doc, k))
        return times

    def _check(self, shape, report, doc, k) -> list[str]:
        n, degrees = shape
        inv = report.invariants
        reasons = dimension_errors(n, degrees, inv.d, inv.e)
        if self.exact:
            reasons += exact_errors(n, degrees, report.exact_reg)
            if not report.hard_verdicts_ok():
                reasons.append(f"hard verdict False: {report.verdicts}")
        else:
            # without the oracle, check the unconditional bounds against the
            # known regularity of a complete intersection
            reg = sum(d - 1 for d in degrees)
            for key, target in (("dim_le1", reg), ("green_variant", reg),
                                ("corollary", reg + 1), ("classical", reg + 1)):
                value = report.bounds.get(key)
                if value is not None and value < target:
                    reasons.append(f"bound {key}={value} below the known regularity {target}")
        if self.reference is not None and digest(doc) != self.reference[k]:
            reasons.append(f"report digest {digest(doc)} differs from reference {self.reference[k]}")
        return reasons

    @staticmethod
    def tail(times: list[float]) -> float:
        # a corpus of a few instances has no percentile with ten samples
        # beyond it, so the tail is the slowest instance
        return max(times)


def acceptance_quota(trials: int, dim_filter: str) -> list[tuple]:
    """Trial shapes (n, degrees) for one fuzz session, allotted to each shape
    in proportion to its probability under the harness's own draw at the
    acceptance config, with largest-remainder rounding.

    `fuzz.random_ideal` draws n in 2..4, a degree cap in 1..3, k in 1..n+1
    generators and each degree in 1..cap, all uniformly; dense random forms
    then have dimension max(n - k, 0). Fixing the shape mix this way leaves
    only the coefficients to the seed. Freely drawn, the cost of 300 trials
    moved by 0.47 of its median (quartile distance over 8 seeds), because
    the slowest 20 of 1,200 trials, with several cubics in four variables,
    took 30% of the time.
    """
    weight: dict = defaultdict(float)
    for n in (2, 3, 4):
        for cap in (1, 2, 3):
            for k in range(1, n + 2):
                if (max(n - k, 0) <= 1) != (dim_filter == "le1"):
                    continue
                for degrees in product(range(1, cap + 1), repeat=k):
                    weight[(n, tuple(sorted(degrees)))] += 1 / (3 * 3 * (n + 1) * cap**k)
    total = sum(weight.values())
    share = {shape: trials * w / total for shape, w in weight.items()}
    count = {shape: int(x) for shape, x in share.items()}
    by_remainder = sorted(share, key=lambda shape: (count[shape] - share[shape], shape))
    for shape in by_remainder[: trials - sum(count.values())]:
        count[shape] += 1
    return [shape for shape in sorted(count) for _ in range(count[shape])]


class FuzzWorkload:
    """`run_fuzz` at the acceptance config (n 2..4, D 1..3; one session of
    dimension <= 1, one of dimension >= 2), single process, with every hard
    check. The trials' ideals come from this benchmark: the draw is replaced
    by a lookup of the next generated instance (see `acceptance_quota`)."""

    def __init__(self, name: str, seed: int, sessions, reference=None):
        from regbound.fuzz import FuzzConfig
        from regbound.groebner import parse_ideal_text

        self.name = name
        self.seed = seed
        self.reference = reference
        self.sessions = {}  # FuzzConfig -> [(shape, parsed ideal)] by trial index
        for k, (trials, dim) in enumerate(sessions):
            cfg = FuzzConfig(trials=trials, seed=2 * seed + k, n_min=2, n_max=4,
                             D_min=1, D_max=3, dim_filter=dim)
            shapes = acceptance_quota(trials, dim)
            self.sessions[cfg] = [
                (shape, parse_ideal_text(ideal_text(*shape, instance_rng(name, seed, k, i))))
                for i, shape in enumerate(shapes)
            ]

    def run_pass(self, failures: Failures) -> list[float]:
        """Run every session once; returns per-trial wall times, taken by a
        clock around `fuzz.run_trial`, which `run_fuzz` looks up per trial."""
        from regbound import fuzz
        from regbound.groebner import GenericityError, Ideal, InternalLimitError
        from regbound.hilbert import InvariantError

        times: list[float] = []
        inner_trial, inner_draw = fuzz.run_trial, fuzz.random_ideal
        current = None

        def trial(cfg, index):
            nonlocal current
            parsed = self.sessions[cfg][index][1]
            current = Ideal(parsed.ring, parsed.generators)
            start = perf_counter()
            try:
                return inner_trial(cfg, index)
            finally:
                times.append(perf_counter() - start)

        fuzz.run_trial, fuzz.random_ideal = trial, lambda cfg, rng: current
        try:
            for k, (cfg, instances) in enumerate(self.sessions.items()):
                where = f"{self.name} session seed={cfg.seed} dim={cfg.dim_filter}"
                failures.attempted += cfg.trials
                try:
                    summary = fuzz.run_fuzz(cfg, jobs=1)
                except (GenericityError, InternalLimitError, InvariantError) as exc:
                    failures.add(where, [f"raised {type(exc).__name__}: {exc}"])
                    continue
                self._check(summary, instances, k, where, failures)
        finally:
            fuzz.run_trial, fuzz.random_ideal = inner_trial, inner_draw
        return times

    def _check(self, summary, instances, k, where, failures: Failures):
        failed = {f["trial"]: f["failed"] for f in summary["failures"]}
        for rec in summary["records"]:
            (n, degrees), _ = instances[rec["trial"]]
            reasons = []
            if rec["trial"] in failed:
                reasons.append(f"failed checks {failed[rec['trial']]}")
            if rec["skipped_budget"]:
                reasons.append("exact oracle over budget")
            else:
                inv = rec["report"]["invariants"]
                reasons += dimension_errors(n, degrees, int(inv["d"]), int(inv["e"]))
                reasons += exact_errors(n, degrees, int(rec["report"]["exact"]["reg_quotient"]))
            failures.add(f"{where} trial {rec['trial']} n={n} degrees={degrees}", reasons)
        if self.reference is not None:
            # the summary without its records, plus each trial's report
            got = digest([{key: v for key, v in summary.items() if key != "records"},
                          [rec.get("report") for rec in summary["records"]]])
            if got != self.reference[k]:
                failures.add(where, [f"summary digest {got} differs from reference {self.reference[k]}"])

    @staticmethod
    def tail(times: list[float]) -> float:
        # p95: 300 trials leave 15 beyond it
        return statistics.quantiles(times, n=20)[-1]


def make_workload(name: str, seed: int, quick: bool, references: dict):
    """The named workload; `quick` swaps in one small instance (or a dozen
    small trials) for the benchmark's self-check."""
    reference = None if quick else references.get(str(seed), {}).get(name)
    if name == "fuzz-accept":
        return FuzzWorkload(name, seed, QUICK_FUZZ if quick else FUZZ_SESSIONS, reference)
    if name == "analyze-zerodim":
        return AnalyzeWorkload(name, seed, QUICK_ZERODIM if quick else ZERODIM_SHAPES,
                               exact=False, reference=reference)
    if name == "exact-posdim":
        return AnalyzeWorkload(name, seed, QUICK_POSDIM if quick else POSDIM_SHAPES,
                               exact=True, reference=reference)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("fuzz-accept", "analyze-zerodim", "exact-posdim")
