"""Runnable checks for the approximation bounds and their proof lemmas.

Each check measures the relevant quantities exactly, evaluates the
claimed bound, and returns a BoundReport.  Bounds that evaluate to 1 or
more are reported "vacuous" (distances never exceed 1); inputs violating
a claim's hypotheses yield "not-applicable" rather than a guess.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

from .agenda import Agenda, parse_agenda_spec
from .bitfn import (
    BoolFn,
    classify,
    coalition_members,
    constant,
    depends_only_on,
    distance_uniform,
    ignorability,
    influence,
    junta_projection,
    popcount,
)
from .fourier import character, spectral_sum, transform
from .indices import (
    dependency_index_max,
    ic_conjunction,
    ic_xor,
    inconsistency_index,
    independent_approximation,
    min_ic_over_conclusion,
)
from .mechanism import (
    IndependentMechanism,
    Mechanism,
    closed_families,
    consistent_mask,
    independent_rows,
    mech_distance_exact,
    output_vector,
)
from .oracle import CIFamily, closed_family, nearest_ci


# whether the bound is closed, for each claim whose status is
# verdict(distance, bound, closed); the boundpi, granularity and junta
# checks decide their status otherwise
CLOSED_BOUND = {"mand": False, "mxor": True, "relax": False, "blr": True}


def verdict(distance: Fraction, bound: float, closed: bool) -> str:
    """Status of a distance against its claimed bound: "vacuous" when the
    bound is 1 or more (distances never exceed 1), else "satisfied" when the
    distance is 0 (F is in the family) or below the bound, or equal to it
    when `closed`, else "violated"."""
    if bound >= 1:
        return "vacuous"
    if distance == 0 or (distance <= bound if closed else distance < bound):
        return "satisfied"
    return "violated"


@dataclass(frozen=True)
class BoundReport:
    claim: str
    agenda_id: str
    voters: int
    issues: int
    status: str                     # satisfied | violated | vacuous | not-applicable
    ic: Fraction | None = None
    di: Fraction | None = None
    distance: Fraction | None = None
    bound: float | None = None
    witness: str = ""
    detail: dict = field(default_factory=dict)

    def recompute_status(self) -> str:
        """Re-derive the verdict from the stored distance and bound; the
        lemma checks, whose status is no such verdict, keep theirs."""
        if self.status == "not-applicable" or self.claim not in CLOSED_BOUND:
            return self.status
        return verdict(self.distance, self.bound, CLOSED_BOUND[self.claim])

    def csv_row(self) -> list[str]:
        return ([self.claim, self.agenda_id, str(self.voters), str(self.issues)]
                + rational_cells(self.ic) + rational_cells(self.di)
                + rational_cells(self.distance)
                + ["" if self.bound is None else repr(float(self.bound)),
                   self.status, self.witness])


def rational_cells(x) -> list[str]:
    """A value as its (numerator, log2 denominator) CSV cell pair.

    A Fraction whose denominator is a power of two gives p and k for p/2^k;
    any other Fraction gives "p/q" and an empty second cell, and a float
    (a Monte Carlo estimate) its repr and an empty cell.  None gives two
    empty cells.
    """
    if x is None:
        return ["", ""]
    if isinstance(x, float):
        return [repr(x), ""]
    frac = Fraction(x)
    den = frac.denominator
    if den & (den - 1):
        return [f"{frac.numerator}/{den}", ""]
    return [str(frac.numerator), str(den.bit_length() - 1)]


CSV_HEADER = ["claim", "agenda", "n", "m", "ic_num", "ic_logden", "di_num",
              "di_logden", "distance_num", "distance_logden", "bound_float",
              "status", "witness"]


def _one_line(mech: Mechanism) -> str:
    return mech.serialize().replace("\n", ";")


# ---------------------------------------------------------------------------
# main bounds on the conjunction and xor agendas


def and_bound(m_premises: int, n: int, epsilon: Fraction) -> float:
    """5m (n^2 eps)^(1/(m^2+m-1)) with m counting premises."""
    m = m_premises
    if epsilon == 0:
        return 0.0
    # the correctly rounded n^2 eps, as float(n * n * epsilon) gives it
    scaled = n * n * epsilon.numerator / epsilon.denominator
    return 5 * m * scaled ** (1 / (m * m + m - 1))


def _main_claim(name: str, premises: int):
    """The conjunction ("mand") or xor ("mxor") claim with k premises, as
    (agenda kind, exact IC formula on the issue functions, bound from the IC
    at n voters, IC below which the bound applies); an IC never exceeds 1,
    so the conjunction bound's limit 2 is none.  The formulas are looked up
    in this module when called, so a wrapper set on ic_conjunction, ic_xor
    or and_bound here sees every call."""
    if name == "mand":
        return (f"conjunction:{premises}",
                lambda fns: ic_conjunction(list(fns[:-1]), fns[-1]),
                lambda eps, n: and_bound(premises, n, eps), Fraction(2))
    return (f"xor:{premises}", lambda fns: ic_xor(list(fns)),
            lambda eps, n: float((premises + 1) * eps), Fraction(1, 6))


def _check_main(name: str, premises: int, F: IndependentMechanism, n: int,
                family: CIFamily | None) -> BoundReport:
    kind, ic, bound_of, ic_limit = _main_claim(name, premises)
    agenda, _ = parse_agenda_spec(kind)
    if F.issues != agenda.issues or F.voters != n:
        raise ValueError("mechanism shape does not match the agenda")
    eps = ic(F.fns)
    bound = bound_of(eps, n)
    nearest, distance = nearest_ci(F, agenda, n, family or closed_family(kind, n))
    status = (verdict(distance, bound, CLOSED_BOUND[name]) if eps < ic_limit
              else "not-applicable")
    return BoundReport(name, kind, n, agenda.issues, status, ic=eps, distance=distance,
                       bound=bound, witness=_one_line(nearest))


def check_mand(F: IndependentMechanism, m_premises: int, n: int,
               family: CIFamily | None = None) -> BoundReport:
    """Distance from an independent conjunction-agenda mechanism to the
    consistent-independent family, against the polynomial-in-IC bound."""
    return _check_main("mand", m_premises, F, n, family)


def check_mxor(F: IndependentMechanism, m_issues: int, n: int,
               family: CIFamily | None = None) -> BoundReport:
    """Linear-in-IC closeness to the sign-consistent linear tuples on the
    xor agenda; applicable when IC < 1/6."""
    return _check_main("mxor", m_issues - 1, F, n, family)


def sweep_mand(m_premises: int, n: int, workers: int = 1):
    """Check every independent mechanism on the conjunction agenda; see
    sweep_mxor for the result."""
    return _sweep(_sweep_mand_chunk, (m_premises, n), m_premises + 1, workers)


def sweep_mxor(m_issues: int, n: int, workers: int = 1):
    """Check every independent mechanism on the xor agenda.

    Returns (total, violations, formula_mismatches): the serializations of
    the mechanisms whose distance misses a non-vacuous bound, and of those
    whose IC formula disagrees with the IC counted over their outputs.
    """
    return _sweep(_sweep_mxor_chunk, (m_issues, n), m_issues, workers)


def _sweep(chunk_fn, head: tuple, issues: int, workers: int):
    n_tables = 1 << (1 << head[1])
    parts = _map_chunks(chunk_fn, head, n_tables, workers)
    return (n_tables**issues, [v for part in parts for v in part[0]],
            [v for part in parts for v in part[1]])


def _sweep_mand_chunk(args):
    m_premises, n, lo, hi = args
    return _sweep_chunk("mand", m_premises, n, lo, hi)


def _sweep_mxor_chunk(args):
    m_issues, n, lo, hi = args
    return _sweep_chunk("mxor", m_issues - 1, n, lo, hi)


def _sweep_chunk(name: str, premises: int, n: int, lo: int, hi: int):
    """(violations, formula mismatches) among the tuples whose first issue
    has a table in lo..hi-1, in itertools.product order."""
    import numpy as np

    kind, ic, bound_of, ic_limit = _main_claim(name, premises)
    agenda, _ = parse_agenda_spec(kind)
    inconsistent = ~consistent_mask(agenda)
    family = np.stack([output_vector(g, agenda, n) for g in closed_families(kind, n)])
    profiles = family.shape[1]
    closed = CLOSED_BOUND[name]
    n_tables = 1 << (1 << n)
    fns = [BoolFn(n, t) for t in range(n_tables)]
    tuples = itertools.product(fns[lo:hi], *[fns] * (agenda.issues - 1))
    per_table = n_tables ** (agenda.issues - 1)
    limit_num, limit_den = ic_limit.as_integer_ratio()
    violations = []
    mismatches = []
    for rows in independent_rows(agenda, n, lo * per_table, hi * per_table):
        bad = np.count_nonzero(inconsistent[rows], axis=1).tolist()
        # `bad` first: zip stops at the block's end without taking a tuple
        for r, (count, tup) in enumerate(zip(bad, tuples)):
            eps = ic(tup)
            # integer forms of eps == count/profiles and eps < ic_limit
            num, den = eps.as_integer_ratio()
            if num * profiles != count * den:
                mismatches.append(_one_line(IndependentMechanism(tup)))
            if num * limit_den >= limit_num * den:
                continue
            bound = bound_of(eps, n)
            if bound >= 1:
                continue
            nearest = int(np.count_nonzero(family != rows[r], axis=1).min())
            if verdict(Fraction(nearest, profiles), bound, closed) == "violated":
                violations.append(_one_line(IndependentMechanism(tup)))
    return violations, mismatches


def _map_chunks(chunk_fn, head: tuple, size: int, workers: int) -> list:
    """Results of chunk_fn on (*head, lo, hi) for each of up to `workers`
    chunks of range(size), in chunk order, so joining them gives the same
    list for any `workers`.

    A pool runs them when more than one process would be used: at most one
    per chunk and per CPU.
    """
    step = -(-size // max(1, min(workers, size)))
    args = [(*head, lo, min(lo + step, size)) for lo in range(0, size, step)]
    processes = min(workers, len(args), os.cpu_count() or 1)
    if processes > 1:
        import multiprocessing

        with multiprocessing.Pool(processes) as pool:
            return pool.map(chunk_fn, args)
    return [chunk_fn(a) for a in args]


# ---------------------------------------------------------------------------
# relaxing both constraints


def single_constraint_delta(kind: str, n: int, epsilon: float) -> float:
    """Admissible inconsistency level delta(eps) for the independent-only
    theorem of the named agenda kind."""
    name, _, arg = kind.partition(":")
    if name == "conjunction":
        m = int(arg)
        return n**-2 * (epsilon / (5 * m)) ** (m * m + m - 1)
    if name == "xor":
        m_issues = int(arg) + 1
        return epsilon / m_issues
    raise ValueError(f"unsupported agenda kind {kind!r}")


def default_beta(kind: str, n: int, epsilon: float) -> float:
    """Midpoint of the admissible beta interval: the largest beta with
    delta((1-beta) eps) >= beta eps, halved."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if single_constraint_delta(kind, n, (1 - mid) * epsilon) >= mid * epsilon:
            lo = mid
        else:
            hi = mid
    return lo / 2


def check_relax(F: Mechanism, kind: str, agenda: Agenda, n: int,
                epsilon: float, beta: float | None = None,
                family: CIFamily | None = None) -> BoundReport:
    """Both-constraints relaxation: small IC and DI imply closeness to a
    consistent independent mechanism, via the independent-approximation
    construction chained with the single-constraint bound."""
    m = agenda.issues
    if beta is None:
        beta = default_beta(kind, n, epsilon)
    delta_ic = single_constraint_delta(kind, n, (1 - beta) * epsilon) - beta * epsilon
    delta_di = beta * epsilon / (2 * m)
    ic = inconsistency_index(F, agenda, n).value
    di = dependency_index_max(F, agenda, n).value
    detail = {"beta": beta, "delta_ic": delta_ic, "delta_di": delta_di}
    # beta = 0 keeps delta_di = 0, which independent inputs (DI = 0) still meet
    if delta_ic <= 0 or float(ic) > delta_ic or float(di) > delta_di:
        return BoundReport("relax", kind, n, m, "not-applicable", ic=ic, di=di,
                           bound=epsilon, detail=detail)
    H = independent_approximation(F, agenda, n)
    d_fh = mech_distance_exact(F, H, agenda, n)
    assert d_fh <= 2 * m * di, "independent approximation exceeded its bound"
    G, d_hg = nearest_ci(H, agenda, n, family or closed_family(kind, n))
    d_fg = mech_distance_exact(F, G, agenda, n)
    assert d_fg <= d_fh + d_hg, "triangle inequality violated"
    detail.update({"d_fh": d_fh, "d_hg": d_hg, "ic_h": inconsistency_index(H, agenda, n).value})
    return BoundReport("relax", kind, n, m, verdict(d_fg, epsilon, CLOSED_BOUND["relax"]),
                       ic=ic, di=di, distance=d_fg, bound=epsilon, witness=_one_line(G),
                       detail=detail)


# ---------------------------------------------------------------------------
# conjunction proof lemmas


def check_boundpi(fs: list[BoolFn], i: int, k: int, l: int) -> BoundReport:
    """Ignorability-influence product bounded by the optimal inconsistency:
    OSI_i(f^k) Inf_i(f^l) <= 4 (prod_{j != k,l} d(f^j, 0))^-1 ICtilde."""
    if k == l:
        raise ValueError("the two issues must differ")
    n = fs[0].arity
    m = len(fs)
    lhs = ignorability(i, fs[k - 1]) * influence(i, fs[l - 1])
    ictilde, _ = min_ic_over_conclusion(fs)
    prod = Fraction(1)
    for j, f in enumerate(fs, start=1):
        if j not in (k, l):
            prod *= distance_uniform(f, constant(0, n))
    if prod == 0:
        return BoundReport("boundpi", f"conjunction:{m}", n, m + 1, "satisfied",
                           ic=ictilde, distance=lhs, bound=math.inf)
    rhs = 4 * ictilde / prod
    status = "satisfied" if lhs <= rhs else "violated"
    return BoundReport("boundpi", f"conjunction:{m}", n, m + 1, status,
                       ic=ictilde, distance=lhs, bound=float(rhs),
                       detail={"rhs": rhs})


def check_granularity(fs: list[BoolFn], junta: int) -> BoundReport:
    """The optimal inconsistency of junta-restricted functions is an integer
    multiple of 2^(-m |J|)."""
    n = fs[0].arity
    m = len(fs)
    for f in fs:
        if not depends_only_on(f, junta):
            raise ValueError("function depends on a voter outside the junta")
    ictilde, _ = min_ic_over_conclusion(fs)
    cell = 1 << (m * popcount(junta))
    ok = cell % ictilde.denominator == 0
    return BoundReport("granularity", f"conjunction:{m}", n, m + 1,
                       "satisfied" if ok else "violated", ic=ictilde,
                       detail={"junta": junta, "cell_log2": m * popcount(junta)})


def check_junta_lemma(fs: list[BoolFn], delta: Fraction, epsilon: Fraction) -> BoundReport:
    """The small-ignorability junta construction: under the hypotheses, all
    projections collapse to one oligarchy, stay close to the originals, and
    the junta stays logarithmically small."""
    n = fs[0].arity
    m = len(fs)
    delta, epsilon = Fraction(delta), Fraction(epsilon)
    ictilde, _ = min_ic_over_conclusion(fs)
    zero = constant(0, n)
    hyp_ic = ictilde <= epsilon
    hyp_far = all(distance_uniform(f, zero) >= delta for f in fs)
    hyp_eps = epsilon < Fraction(1, 2 ** (m * m + 3)) / m / n**2 * delta ** (m * m + m - 1)
    if not (hyp_ic and hyp_far and hyp_eps):
        return BoundReport("junta", f"conjunction:{m}", n, m + 1, "not-applicable",
                           ic=ictilde,
                           detail={"hyp_ic": hyp_ic, "hyp_far": hyp_far,
                                   "hyp_eps": hyp_eps})
    junta = 0
    threshold = delta / n
    for f in fs:
        for i in range(1, n + 1):
            if ignorability(i, f) <= threshold:
                junta |= 1 << (i - 1)
    projections = [junta_projection(f, junta) for f in fs]
    tags = classify(projections[0])
    same_oligarchy = (all(p == projections[0] for p in projections)
                      and tags["oligarchy"] is not None)
    dist_bound = 4 * n**2 * epsilon * delta ** (1 - m)
    close = all(distance_uniform(f, p) <= dist_bound
                for f, p in zip(fs, projections))
    # |J| <= m (1 + log2(1/delta))  <=>  delta^m 2^(|J| - m) <= 1
    size = popcount(junta)
    small = delta**m * Fraction(2**max(0, size - m), 2**max(0, m - size)) <= 1
    failed = [name for name, ok in
              (("oligarchy", same_oligarchy), ("closeness", close), ("size", small))
              if not ok]
    return BoundReport("junta", f"conjunction:{m}", n, m + 1,
                       "satisfied" if not failed else "violated", ic=ictilde,
                       bound=float(dist_bound),
                       detail={"junta": junta,
                               "junta_members": coalition_members(junta),
                               "failed": failed,
                               "oligarchy": tags["oligarchy"]})


# ---------------------------------------------------------------------------
# three-function linearity corollary


def blr_three_function(f: BoolFn, g: BoolFn, h: BoolFn, mode: str = "exact",
                       samples: int = 100_000, seed: int | None = None) -> BoundReport:
    """Three-function linearity: high acceptance of f(x) xor g(y) = h(x xor y)
    yields a common character (up to sign-consistent negations) close to all
    three functions.

    The exact acceptance over all (x, y) is (1 + sum_S f_hat g_hat h_hat(S))/2,
    and the distance of a function to chi_S or its negation is
    (1 -+ f_hat(S))/2, so everything exact comes from the three spectra.
    """
    if not f.arity == g.arity == h.arity:
        raise ValueError("arity mismatch")
    n = f.arity
    spectral = (1 + spectral_sum([f, g, h])) / 2
    if mode == "exact":
        acceptance = spectral
    elif mode == "mc":
        if seed is None:
            raise ValueError("mc mode requires a seed")
        import random

        rng = random.Random(seed)
        agree = 0
        for _ in range(samples):
            x, y = rng.randrange(f.size), rng.randrange(f.size)
            agree += f.evaluate(x) ^ g.evaluate(y) == h.evaluate(x ^ y)
        acceptance = Fraction(agree, samples)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    eps = 1 - acceptance
    detail = {"acceptance": acceptance, "spectral": spectral}
    if eps >= Fraction(1, 6):
        return BoundReport("blr", "xor:2", n, 3, "not-applicable", ic=eps,
                           detail=detail)
    mask, (sa, sb, sc), dists = _nearest_signed_character([f, g, h])
    worst = max(dists)
    constant_achieved = float(worst / eps) if eps else 0.0
    detail.update({"character": mask, "signs": (sa, sb, sc),
                   "distances": dists, "constant": constant_achieved})
    bound = float(2 * eps)
    return BoundReport("blr", "xor:2", n, 3, verdict(worst, bound, CLOSED_BOUND["blr"]),
                       ic=eps, distance=worst, bound=bound,
                       witness=character(mask, n).serialize(), detail=detail)


def _nearest_signed_character(fs: list[BoolFn]):
    """The character chi_S and signs (sa, sb, sa xor sb) minimising the
    largest distance from the three functions to chi_S negated by their
    signs; ties go to the smallest (S, sa, sb).  Returns (S, signs,
    distances), the distances as Fractions."""
    import numpy as np

    n = fs[0].arity
    weights = np.array([transform(f).weights for f in fs], dtype=np.int64)
    # 2^(n+1) d(f, chi_S) = 2^n - w_f(S), and 2^n + w_f(S) for the negation
    patterns = [(sa, sb, sa ^ sb) for sa in (0, 1) for sb in (0, 1)]
    signs = np.array([[2 * s - 1 for s in p] for p in patterns], dtype=np.int64)
    dist = (1 << n) + signs[:, :, None] * weights[None, :, :]   # (pattern, fn, S)
    worst = dist.max(axis=1).T                                   # (S, pattern)
    mask, p = divmod(int(np.argmin(worst)), len(patterns))       # first minimum
    den = 1 << (n + 1)
    return mask, patterns[p], tuple(Fraction(int(d), den) for d in dist[p, :, mask])
