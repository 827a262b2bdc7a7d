"""Randomized soundness harness: generate ideals, bound them, verify every
invariant against the exact oracle, and report reproducers for violations."""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .bounds import analyze, green_estimates
from .groebner import Ideal, ideal_to_text, msaturate, saturate
from .hilbert import InvariantError, length_identity_sides, numerator_full
from .oracle import OracleBudgetError, betti_table, regularity_initial
from .ring import DEFAULT_PRIME, PolyRing, Polynomial, check_prime_size

HARD_CHECKS = (
    "bound_dim_le1",
    "bound_dim_ge2_phi",
    "bound_dim_ge2_Dh",
    "bound_corollary",
    "bound_classical",
    "bound_green",
    "bound_cs_recursive",
    "artinian_length_bound",
    "length_identity",
    "green_estimates",
    "dominance",
    "saturation_identity",
    "euler_identity",
    "initial_cap",
)


@dataclass(frozen=True)
class FuzzConfig:
    trials: int = 100
    seed: int = 0
    n_min: int = 2
    n_max: int = 4
    D_min: int = 1
    D_max: int = 3
    gens_min: int = 1
    gens_max: int | None = None  # default n + 1, per instance
    dim_filter: str | None = None  # "le1", "ge2" or a dimension number
    exact_budget: int | None = 2000  # max strand matrix side
    p: int = DEFAULT_PRIME
    experiment: str | None = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trial count must be non-negative")
        if self.n_min < 1 or self.n_min > self.n_max:
            raise ValueError("bad n range")
        if self.D_min < 1 or self.D_min > self.D_max:
            raise ValueError("bad D range")
        if self.gens_min < 1:
            raise ValueError("bad generator-count range")
        check_prime_size(self.p)


def trial_seed(master: int, index: int) -> int:
    return master * 1_000_003 + index


def _dim_matches(d: int, dim_filter) -> bool:
    if dim_filter is None:
        return True
    if dim_filter == "le1":
        return d <= 1
    if dim_filter == "ge2":
        return d >= 2
    return d == int(dim_filter)


def random_homogeneous_form(ring: PolyRing, rng: random.Random, degree: int) -> Polynomial:
    """Dense random form: every coefficient uniform in F_p; redrawn if zero."""
    monos = ring.monomials_of_degree(degree)
    while True:
        terms = {}
        for m in monos:
            c = rng.randrange(ring.p)
            if c:
                terms[m] = c
        if terms:
            return Polynomial._raw(ring, terms)


def random_ideal(cfg: FuzzConfig, rng: random.Random) -> Ideal:
    """One random instance matching the configured dimension filter."""
    from .hilbert import dim_and_height

    for _ in range(1000):
        n = rng.randint(cfg.n_min, cfg.n_max)
        ring = PolyRing(n, cfg.p)
        d_cap = rng.randint(cfg.D_min, cfg.D_max)
        gens_max = cfg.gens_max if cfg.gens_max is not None else n + 1
        k = rng.randint(cfg.gens_min, max(cfg.gens_min, gens_max))
        gens = [
            random_homogeneous_form(ring, rng, rng.randint(1, d_cap))
            for _ in range(k)
        ]
        I = Ideal(ring, gens)
        if I.is_zero or I.is_unit:
            continue
        if _dim_matches(dim_and_height(I)[0], cfg.dim_filter):
            return I
    raise RuntimeError("could not draw an instance matching the dimension filter")


def run_trial(cfg: FuzzConfig, index: int) -> dict:
    """Analyze one random instance and evaluate every soundness check."""
    seed = trial_seed(cfg.seed, index)
    rng = random.Random(seed)
    I = random_ideal(cfg, rng)
    record: dict = {
        "trial": index,
        "seed": seed,
        "ideal": ideal_to_text(I).splitlines(),
        "checks": {name: "skip" for name in HARD_CHECKS},
        "egh_holds": None,
        "weak_egh": None,
        "skipped_budget": False,
    }
    report = analyze(I, seed=seed, exact=True)
    record["report"] = report.to_json_dict()
    # the Koszul Betti table is the independent side of the exact regularity
    try:
        table = betti_table(I, max_dim=cfg.exact_budget)
    except OracleBudgetError:
        record["skipped_budget"] = True
        return record
    if table.regularity() != report.exact_reg:
        raise InvariantError(
            f"trial {index}: reg(S/I) is {report.exact_reg} by Trung's formula "
            f"but {table.regularity()} by the Koszul oracle"
        )

    checks = record["checks"]
    inv = report.invariants
    d = inv.d

    verdict_map = {
        "dim_le1": "bound_dim_le1",
        "dim_ge2_phi": "bound_dim_ge2_phi",
        "dim_ge2_Dh": "bound_dim_ge2_Dh",
        "corollary": "bound_corollary",
        "classical": "bound_classical",
        "green_variant": "bound_green",
        "cs_recursive": "bound_cs_recursive",
    }
    for key, check in verdict_map.items():
        if key in report.verdicts:
            checks[check] = "pass" if report.verdicts[key] else "fail"
    if "egh_conditional" in report.verdicts:
        record["egh_holds"] = report.verdicts["egh_conditional"]

    # length of the full reduction sits under phi, which sits under D^h
    checks["artinian_length_bound"] = (
        "pass"
        if inv.length_artinian <= inv.phi_value <= inv.D**inv.h
        else "fail"
    )

    if d >= 1:
        lhs, rhs = length_identity_sides(I, inv.lsop)
        checks["length_identity"] = "pass" if lhs == rhs else "fail"

        c_est, cp_est = green_estimates(inv)
        checks["green_estimates"] = (
            "pass" if inv.c <= c_est and inv.cprime <= cp_est else "fail"
        )

        partial = I.plus(*inv.lsop[: d - 1]) if d > 1 else I
        sat_m = msaturate(partial)
        sat_y = saturate(partial, inv.lsop[d - 1])
        checks["saturation_identity"] = "pass" if sat_m == sat_y else "fail"

    if d >= 2:
        b_phi = report.bounds["dim_ge2_phi"]
        b_dh = report.bounds["dim_ge2_Dh"]
        b_green = report.bounds["green_variant"]
        checks["dominance"] = (
            "pass" if b_phi <= b_dh and b_phi <= b_green else "fail"
        )

    checks["euler_identity"] = (
        "pass" if table.euler_numerator() == numerator_full(I) else "fail"
    )
    try:
        reg_ini = regularity_initial(I, max_dim=cfg.exact_budget)
        checks["initial_cap"] = (
            "pass" if report.exact_reg <= reg_ini else "fail"
        )
    except OracleBudgetError:
        pass

    if cfg.experiment == "weak-egh" and d == 0:
        from .lpp import weak_egh_experiment

        record["weak_egh"] = weak_egh_experiment(I, inv.D)

    return record


def _worker(args):
    cfg_dict, index = args
    return run_trial(FuzzConfig(**cfg_dict), index)


def run_fuzz(cfg: FuzzConfig, jobs: int = 1) -> dict:
    """Run all trials and aggregate a deterministic summary."""
    if jobs > 1 and cfg.trials > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(
                pool.map(_worker, [(asdict(cfg), i) for i in range(cfg.trials)])
            )
    else:
        records = [run_trial(cfg, i) for i in range(cfg.trials)]
    records.sort(key=lambda r: r["trial"])

    counts = {name: {"pass": 0, "fail": 0, "skip": 0} for name in HARD_CHECKS}
    failures = []
    skipped = 0
    egh_checked = 0
    egh_violations = []
    weak_checked = 0
    weak_violations = []
    for rec in records:
        if rec["skipped_budget"]:
            skipped += 1
            continue
        failed = []
        for name in HARD_CHECKS:
            status = rec["checks"][name]
            counts[name][status] += 1
            if status == "fail":
                failed.append(name)
        if failed:
            failures.append({"trial": rec["trial"], "failed": failed})
        if rec["egh_holds"] is not None:
            egh_checked += 1
            if not rec["egh_holds"]:
                egh_violations.append(rec["trial"])
        if rec["weak_egh"] is not None:
            weak_checked += 1
            if not rec["weak_egh"]["holds"]:
                weak_violations.append(rec["trial"])

    summary = {
        "config": asdict(cfg),
        "trials": cfg.trials,
        "analyzed": cfg.trials - skipped,
        "skipped_budget": skipped,
        "checks": counts,
        "failures": failures,
        "egh_conditional": {"checked": egh_checked, "violations": egh_violations},
    }
    if cfg.experiment == "weak-egh":
        summary["weak_egh"] = {
            "checked": weak_checked,
            "violations": weak_violations,
            "reports": [r["weak_egh"] for r in records if r["weak_egh"] is not None],
        }
    summary["records"] = records
    return summary


def write_reproducers(summary: dict, out_dir: str) -> list[str]:
    """Write one reproducer file per failing trial; returns the file names."""
    import os

    names = []
    by_trial = {r["trial"]: r for r in summary["records"]}
    for failure in summary["failures"]:
        rec = by_trial[failure["trial"]]
        name = f"reproducer_t{failure['trial']:04d}.ideal"
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(f"# trial {failure['trial']} seed {rec['seed']}\n")
            fh.write(f"# failed checks: {', '.join(failure['failed'])}\n")
            fh.write("\n".join(rec["ideal"]) + "\n")
        names.append(name)
    return names
