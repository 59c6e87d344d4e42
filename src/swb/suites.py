"""Verification suites over (p, N, t, k) grids.

Each suite builds a deterministic list of case descriptors, evaluates
them (optionally across worker processes), and assembles a
VerificationReport.  A case that cannot be decided never stops the run:
budget overruns mark it skipped-budget, shapes outside the counting
engine unsupported, and density or analytic errors error.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

from swb import analytic, density, geometry
from swb.counting import Budget, BudgetExceeded, EngineUnsupported
from swb.lattice import diagonal_lattice, hyperbolic_lattice, zero_lattice
from swb.padic import divisors, euler_phi, is_prime, psi_index, smallest_nonresidue
from swb.report import ERROR, SKIPPED_BUDGET, UNSUPPORTED, CaseResult, VerificationReport

MIN_BUDGET = 10**6


class ConfigError(ValueError):
    pass


class SuiteConfig:
    def __init__(
        self,
        suite: str,
        primes: tuple = (2, 3, 5),
        n_values: tuple = tuple(range(1, 61)),
        t_values: tuple = tuple(t for t in range(-10, 11) if t),
        k_values: tuple = (1, 2, 3),
        d_max: int | None = None,
        budget: int = 2**32,
        jobs: int = 1,
        convention: str = "A",
        seed: int = 0,
    ):
        self.suite = suite
        self.primes = primes
        self.n_values = n_values
        self.t_values = t_values
        self.k_values = k_values
        self.d_max = d_max
        self.budget = budget
        self.jobs = jobs
        self.convention = convention
        self.seed = seed

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {', '.join(SUITES)}")
        if self.d_max is not None and self.suite != "density-calibration":
            raise ConfigError("d_max applies only to density-calibration")
        if self.d_max is not None and self.d_max < 2:
            raise ConfigError("d_max must be >= 2")
        for p in self.primes:
            if not is_prime(p):
                raise ConfigError(f"not a prime: {p}")
        for n in self.n_values:
            if n < 1:
                raise ConfigError(f"N must be >= 1, got {n}")
        if 0 in self.t_values:
            raise ConfigError("t must be nonzero")
        for opt, values in (("--p", self.primes), ("--N", self.n_values),
                            ("--t", self.t_values), ("--k", self.k_values)):
            seen = set()
            for v in values:
                if v in seen:  # a repeated value would run its cases twice
                    raise ConfigError(f"{opt} lists {v} twice")
                seen.add(v)
        if self.budget < MIN_BUDGET:
            raise ConfigError(f"budget must be >= {MIN_BUDGET}")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.convention not in ("A", "B"):
            raise ConfigError("convention must be A or B")
        return self


def check_options(suite, given):
    """Raise ConfigError for each option in `given` that `suite` does not read."""
    reads = SUITES[suite][1]
    unread = [opt for opt in given if opt not in reads]
    if unread:
        raise ConfigError(
            f"{suite} does not read {', '.join(unread)}; it reads {', '.join(reads)}"
        )


# ---------------------------------------------------------------------------
# case construction: (kind, payload) descriptors, all picklable


def _calibration_cases(cfg):
    cases = []
    for p in cfg.primes:
        if p == 2:
            ks = [k for k in range(2, 7) if k % 2 == 0]
            units = [1, 3]
            eps_list = [1]
        else:
            ks = list(range(2, 7))
            units = [1, smallest_nonresidue(p)]
            eps_list = [1, -1]
        for k in ks:
            for eps in eps_list:
                for nu in (0, 1, 2):
                    for u in units:
                        conventions = ("A", "B") if p == 2 else (cfg.convention,)
                        for conv in conventions:
                            cases.append(("calibration", (p, k, eps, u * p**nu, conv)))
    return cases


def _difference_cases(cfg):
    cases = []
    for p in cfg.primes:
        u2 = 3 if p != 3 else 2
        m_specs = [
            (),
            (1,),
            (u2,),
            (1, u2),
            (1, u2 * p),
            (1, p * p),
        ]
        hs = [(4, 1), (6, 1)] + ([(4, -1), (6, -1)] if p != 2 else [])
        for (k, eps) in hs:
            for m_spec in m_specs:
                for nu in (0, 1, 2, 3):
                    N = p**nu * (1 if nu % 2 else u2)
                    cases.append(("difference", (p, k, eps, m_spec, N, cfg.convention)))
    return cases


def _functional_cases(cfg):
    rng = random.Random(cfg.seed)
    cases = []
    odd = [q for q in cfg.primes if q != 2]
    for _ in range(30 if odd else 0):
        p = rng.choice(odd)
        rank = rng.choice([1, 2, 3])
        exps = [rng.choice([0, 0, 1, 2]) for _ in range(rank)]
        if rank == 3 and min(exps) > 0:
            exps[rng.randrange(rank)] = 0
        n0 = smallest_nonresidue(p)
        units = [rng.choice([1, n0, -1, -n0]) for _ in range(rank)]
        vals = tuple(u * p**e for u, e in zip(units, exps))
        eps = rng.choice([1, -1])
        cases.append(("functional", (p, vals, eps, cfg.convention)))
    if 2 in cfg.primes:
        pairs = [(2, 2), (1, 1), (3, 1), (4, 3), (2, 6), (8, 1), (4, 4), (6, 2), (8, 6), (1, 7)]
        for (N, t) in pairs:
            cases.append(("functional", (2, (N, t), 1, cfg.convention)))
    return cases


def _singular_cases(cfg):
    cases = []
    for p in cfg.primes:
        for nu in (0, 1, 2, 3):
            N = p**nu
            for t in cfg.t_values:
                cases.append(("singular", (p, N, t, tuple(cfg.k_values), cfg.convention)))
    for p in (q for q in cfg.primes if q in (2, 3)):
        for nu in (2, 3, 4):
            for t in [t for t in cfg.t_values if abs(t) <= 6]:
                cases.append(("g-fe", (p, p**nu, t, cfg.convention)))
    return cases


def _level_lowering_cases(cfg):
    cases = []
    for p in cfg.primes:
        nus = (2, 3, 4) if p in (2, 3) else (2,)
        for nu in nus:
            for t in (1, -1, 3, 5):
                cases.append(("level-lowering", (p, p**nu, t, cfg.convention)))
    return cases


def _geometry_cases(cfg):
    cases = []
    if not cfg.n_values:
        return cases
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for Np in (1, 2, 5):
                if Np % p == 0:
                    continue
                cases.append(("geometry-fiber", (Np * p**n, p)))
    for N in cfg.n_values:
        cases.append(("geometry-level", (N,)))
    return cases


def _t0_cases(cfg):
    cases = []
    if not cfg.n_values:
        return cases
    for p in (2, 3, 5):
        for n in range(4):
            cases.append(("a-p-routes", (p, n)))
    for N in cfg.n_values:
        cases.append(("siegel-weil-t0", (N,)))
    return cases


# suite -> (case builder, the grid options of `swb verify` it reads).
# Passing an option a suite does not read is a configuration error, not a
# silent no-op.
SUITES = {
    "density-calibration": (_calibration_cases, ("--p", "--convention", "--d-max")),
    "difference-formula": (_difference_cases, ("--p", "--convention")),
    "functional-equation": (_functional_cases, ("--p", "--convention", "--seed")),
    "singular-relation": (_singular_cases, ("--p", "--t", "--k", "--convention")),
    "level-lowering": (_level_lowering_cases, ("--p", "--convention")),
    "geometry-ledger": (_geometry_cases, ("--N",)),
    "siegel-weil-t0": (_t0_cases, ("--N",)),
}


# ---------------------------------------------------------------------------
# case evaluation


def _eval_case(args):
    kind, payload, budget_limit, d_max = args
    budget = Budget(limit=budget_limit)
    try:
        return _dispatch(kind, payload, budget, d_max)
    except BudgetExceeded as e:
        status, note = SKIPPED_BUDGET, str(e)
    except EngineUnsupported as e:
        status, note = UNSUPPORTED, f"outside the fast engine: {e}"
    except (density.DensityError, analytic.AnalyticError) as e:
        status, note = ERROR, f"{type(e).__name__}: {e}"
    return [CaseResult(kind, _payload_inputs(kind, payload), status, note=note)]


def _payload_inputs(kind, payload):
    return {"case": kind, "args": payload}


def _dispatch(kind, payload, budget, d_max):
    if kind == "calibration":
        p, k, eps, N, conv = payload
        got = density.primitive_density(
            hyperbolic_lattice(k, eps, p),
            diagonal_lattice([N], p),
            convention=conv,
            budget=budget,
            d_max=d_max,
        ).value
        want = density.pden_rank1_closed(k, eps, N, p)
        return [
            CaseResult.check(
                "calibration", {"p": p, "k": k, "eps": eps, "N": N, "conv": conv}, got, want
            )
        ]
    if kind == "difference":
        p, k, eps, m_spec, N, conv = payload
        M = diagonal_lattice(list(m_spec), p) if m_spec else zero_lattice(p)
        return [density.check_difference_formula(k, eps, M, N, convention=conv, budget=budget)]
    if kind == "functional":
        p, vals, eps, conv = payload
        L = diagonal_lattice(list(vals), p)
        return density.check_functional_equation(L, eps, convention=conv, budget=budget)
    if kind == "singular":
        p, N, t, ks, conv = payload
        return analytic.check_singular_relation(N, t, p, ks=ks, convention=conv, budget=budget)
    if kind == "g-fe":
        p, N, t, conv = payload
        return [analytic.check_g_functional_equation(N, t, p, convention=conv, budget=budget)]
    if kind == "level-lowering":
        p, N, t, conv = payload
        return [analytic.check_level_lowering(N, t, p, convention=conv, budget=budget)]
    if kind == "geometry-fiber":
        N, p = payload
        out = geometry.check_div_p_trivial(N, p)
        try:
            geometry.xhat_self_intersection(N, p)
            out.append(CaseResult.of("xhat-closed-form", {"N": N, "p": p}, True))
        except AssertionError as e:
            out.append(CaseResult.of("xhat-closed-form", {"N": N, "p": p}, False, lhs=str(e)))
        try:
            geometry.f_p_self_pairing(N, p)
            out.append(CaseResult.of("f-p-self-closed-form", {"N": N, "p": p}, True))
        except AssertionError as e:
            out.append(CaseResult.of("f-p-self-closed-form", {"N": N, "p": p}, False, lhs=str(e)))
        return out
    if kind == "geometry-level":
        (N,) = payload
        out = geometry.check_hodge_difference(N)
        phi, psi = euler_phi(N), psi_index(N)
        divs = divisors(N)
        vals = {t: geometry.a_N(N, t) for t in divs}
        out.append(
            CaseResult.check("a-N-sum", {"N": N}, sum(vals.values()), phi)
        )
        if N > 1:
            out.append(
                CaseResult.check(
                    "a-N-inverse-sum",
                    {"N": N},
                    sum(Fraction(vals[t], t) for t in divs),
                    Fraction(0),
                )
            )
        out.append(
            CaseResult.check(
                "a-N-weighted-sum", {"N": N}, sum(t * vals[t] for t in divs), psi * phi
            )
        )
        return out
    if kind == "a-p-routes":
        p, n = payload
        N = p**n * (3 if p != 3 else 2)
        closed = analytic.a_p_closed(N, p)
        limit = analytic.a_p_limit_route(N, p)
        return [
            CaseResult.check("a-p-two-routes", {"p": p, "v_p(N)": n, "N": N}, closed, limit)
        ]
    if kind == "siegel-weil-t0":
        (N,) = payload
        out = []
        term, central, _ = analytic.eis0_data(N)
        out.append(
            CaseResult.check("incoherence-vanishing", {"N": N}, central, Fraction(0))
        )
        geo = geometry.geometric_t0_side(N)
        out.append(CaseResult.check("siegel-weil-t0", {"N": N}, geo, term))
        return out
    raise ConfigError(f"unknown case kind {kind!r}")


def run_suite(cfg: SuiteConfig) -> VerificationReport:
    cfg.validate()
    cases = SUITES[cfg.suite][0](cfg)
    report = VerificationReport(
        cfg.suite,
        config={
            "primes": cfg.primes,
            "N": f"{min(cfg.n_values)}..{max(cfg.n_values)}" if cfg.n_values else "(empty)",
            "convention": cfg.convention,
            "budget": cfg.budget,
            "seed": cfg.seed,
        },
    )
    jobs = [(kind, payload, cfg.budget, cfg.d_max) for kind, payload in cases]
    if cfg.jobs > 1 and len(jobs) > 1:
        # imported here: the pool stack (multiprocessing, logging, socket,
        # pickle, ...) would be about half of `import swb.cli` otherwise
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers at once: no more than cases or CPUs
        workers = min(cfg.jobs, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for results in pool.map(_eval_case, jobs, chunksize=4):
                report.extend(results)
    else:
        for job in jobs:
            report.extend(_eval_case(job))
    return report
