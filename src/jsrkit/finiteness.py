"""Evidence that a rotation class of products dominates the spectrum.

Given a candidate word and one or more extremal norms, scan every other
product of the same length and measure how far it falls short of the
growth rate rho_hat ** n.  Words that reach it anyway are reported as
offenders.  Everything here is sampled and finite-depth, so reports carry
an explicit caveat and never claim a proof.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .bounds import _candidates_and_midpoint, spectral_maximal_candidates
from .config import DEFAULTS, _Record, require_fraction, require_tol
from .errors import InputError
from .norms import NormRep, _check_rho, _check_samples, _induced_norm, verify_barabanov
from .tuples import MatrixTuple, _PrefixStore, product_along
from .words import Word, _digit_rows, _rows_among, _words_at, format_word, rotation_class, validate_word

SFH_CAVEAT = (
    "numerical evidence only: norms were admitted by sampled verification and "
    "competing products were scanned at a single finite length, so this report "
    "supports but does not prove that the candidate class is spectrum-maximal"
)


class SfhReport(_Record):
    """Scan result for one candidate rotation class.

    margin is the worst relative gap (rho_hat**n - max_z ||P_z||) / rho_hat**n
    over the admitted norms, where z runs over same-length words outside the
    candidate's rotation class.  offenders holds the words that closed the gap,
    as (word, value) pairs.
    """

    __slots__ = _fields = ("candidate", "depth", "rho_hat", "margin", "offenders", "norm_count")

    @property
    def passed(self) -> bool:
        return not self.offenders

    def to_json_dict(self) -> dict:
        return {
            "candidate": format_word(self.candidate),
            "caveat": SFH_CAVEAT,
            "depth": self.depth,
            "margin": self.margin,
            "norm_count": self.norm_count,
            "offenders": [
                {"value": value, "word": format_word(word)}
                for word, value in self.offenders
            ],
            "passed": self.passed,
            "rho_hat": self.rho_hat,
        }


def _coerce_norms(norm_reps) -> tuple[NormRep, ...]:
    if isinstance(norm_reps, NormRep):
        return (norm_reps,)
    reps = tuple(norm_reps)
    if not reps:
        raise InputError("need at least one norm to scan against")
    for rep in reps:
        if not isinstance(rep, NormRep):
            raise InputError(f"not a norm representation: {rep!r}")
    return reps


def _admit(t: MatrixTuple, norm_reps, rho_hat: float, norm_check_tol: float, samples):
    """The induced maps (norms._induced_norm) of the norms, each first passing verify_barabanov."""
    reps = _coerce_norms(norm_reps)
    for rep in reps:
        check = verify_barabanov(t, rep, rho_hat, tol=norm_check_tol, samples=samples)
        if not check.passed:
            raise InputError(
                "norm rejected: sampled relative residual "
                f"{check.residual:.3e} exceeds {norm_check_tol:.1e}"
            )
    return [_induced_norm(rep, t.d, real=t.field == "real", samples=samples) for rep in reps]


def sfh_evidence(
    t: MatrixTuple,
    omega: Word,
    norm_reps,
    rho_hat: float,
    *,
    offender_tol: float = DEFAULTS.offender_tol,
    norm_check_tol: float = DEFAULTS.norm_check_tol,
    samples=None,
    budget: int = DEFAULTS.word_budget,
) -> SfhReport:
    """Scan all length-|omega| products outside omega's rotation class.

    Every supplied norm must first pass verify_barabanov at norm_check_tol;
    a rejected norm raises InputError since scanning under it would be
    meaningless.  An offender is a word whose induced norm reaches
    rho_hat ** |omega| up to offender_tol in (0, 1); offenders are pooled across norms
    and sorted.  samples, when given, feeds both the verification, which also
    rejects a bad rho_hat, and any sampled matrix norms.  budget counts the
    rows that the scan's walk (tuples._PrefixStore) asks its prune about.

    Only competitors that can change the report are evaluated: first the
    seeds, per norm the one-letter mutant of omega (two letter counts
    differ, so no rotation) with the largest bound, up to rounding, built
    by product_along as the walk builds it.  The walk then drops
    zero products, at k = n omega's rotations and the seeds, and each prefix
    p of length k whose bound_of(cap) * L ** (n - k) * _PRUNE_SLACK lies
    strictly below min(threshold, level maximum so far) under every norm:
    cap is P_p's linalg.op_norm_caps value, bound_of the norm's second map
    (norms._induced_norm) and L the slots' largest linalg.op_norms value.
    So margin and offenders are bitwise those of an unscreened scan.
    """
    omega = validate_word(omega, t.r)
    require_fraction("offender_tol", require_tol("offender_tol", offender_tol))
    require_tol("norm_check_tol", norm_check_tol, zero_ok=True)
    induced = _admit(t, norm_reps, rho_hat, norm_check_tol, samples)
    return _scan(t, omega, induced, rho_hat, offender_tol, budget)


def _target(rho_hat: float, n: int) -> float:
    """rho_hat ** n, the growth rate a scan compares against; InputError unless a normal float (finite, >= 2**-1022)."""
    try:
        target = rho_hat ** n
    except OverflowError:  # a float power raises where numpy would return inf
        target = np.inf
    if not np.finfo(float).tiny <= target < np.inf:
        raise InputError(f"rho_hat ** {n} = {target} leaves the float range; rescale the tuple")
    return target


# A word below a prefix P_p of length k is n - k matmuls on, and each computed
# A @ X has a 2-norm below (1 + d**2 * eps) * ||A||_2 * ||X||_2, eps = 2**-53
# (|fl(A X) - A X| <= d * eps * |A| @ |X|, and ||M||_F <= sqrt(d) * ||M||_2).
# With L, LAPACK's sigma_1, off by a few d * eps and its power by an ulp, this
# factor keeps cap * L ** (n - k) a bound while (n - k) * d**2 stays below 4e6.
_PRUNE_SLACK = 1.0 + 1e-9


def _scan(t: MatrixTuple, omega: Word, induced, rho_hat: float, offender_tol: float, budget: int) -> SfhReport:
    """sfh_evidence's pruned offender scan under induced maps that _admit returned: the seeds, then the walk."""
    n = len(omega)
    target = _target(rho_hat, n)
    threshold = target * (1.0 - offender_tol)
    level_max = [0.0] * len(induced)
    offender_values: dict[Word, float] = {}

    def evaluate(digits: np.ndarray, stack: np.ndarray) -> None:
        for i, (norm_of, _) in enumerate(induced):
            values = norm_of(stack)
            level_max[i] = max(level_max[i], float(np.max(values)))
            hits = np.flatnonzero(values >= threshold)
            for z, value in zip(_words_at(digits[hits]), values[hits].tolist()):
                offender_values[z] = max(offender_values.get(z, 0.0), value)

    slots = np.stack(t.matrices)
    picks = [(j, a) for j in range(n) for a in range(1, t.r + 1) if a != omega[j]]  # the mutants
    with np.errstate(over="ignore", invalid="ignore"):  # the walk's state for the walk's work
        powers = np.max(linalg.op_norms(slots)) ** np.arange(n, dtype=float)  # L ** (n - k)
        reach = np.where(powers >= np.finfo(float).tiny, powers * _PRUNE_SLACK, np.inf)
        if picks:  # by the caps of the mutants up to rounding, in 2 matmuls each, not n
            heads, tails = [np.eye(t.d)], [np.eye(t.d)]  # the products of omega's first and last j letters
            for j in range(n - 1):
                heads.append(slots[omega[j] - 1] @ heads[-1])
                tails.append(tails[-1] @ slots[omega[n - 1 - j] - 1])
            caps = linalg.op_norm_caps(np.array([tails[n - 1 - j] @ slots[a - 1] @ heads[j] for j, a in picks]))
            picks = [picks[i] for i in sorted({int(np.argmax(bound_of(caps))) for _, bound_of in induced})]
        seeds = [omega[:j] + (a,) + omega[j + 1:] for j, a in picks]
        stack = np.array([product_along(t, z) for z in seeds])  # bitwise the walk's products
    if seeds and np.isfinite(stack).all():  # else the walk raises as it builds the overflow
        evaluate(_digit_rows(seeds, t.r), stack)
    known = _rows_among([*rotation_class(omega), *seeds], t.r)

    def prune(digits, periods, caps, k):  # a NaN bound compares False and keeps its row
        drop = (caps == 0) | np.logical_and.reduce([bound_of(caps) * reach[n - k] < min(threshold, m)
                                                    for (_, bound_of), m in zip(induced, level_max)])
        return drop | known(digits) if k == n else drop

    for digits, _, _, stack in _PrefixStore(t, 1, budget).walk(n, prune=prune):
        evaluate(digits, stack)
    margin = min([1.0] + [(target - m) / target for m in level_max])
    return SfhReport(candidate=omega, depth=n, rho_hat=rho_hat, margin=margin,
                     offenders=tuple(sorted(offender_values.items())), norm_count=len(induced))


def characteristic_word_search(
    t: MatrixTuple,
    depth: int,
    norm_reps,
    rho_hat: float | None = None,
    *,
    offender_tol: float = DEFAULTS.offender_tol,
    norm_check_tol: float = DEFAULTS.norm_check_tol,
    samples=None,
    budget: int = DEFAULTS.word_budget,
) -> list[SfhReport]:
    """Run sfh_evidence over every spectrum-maximal candidate up to depth.

    rho_hat defaults to the midpoint of the certified interval at the same
    depth (bounds._candidates_and_midpoint), from the candidate scan's pass.  The
    norms are admitted once, for every candidate.  Reports come back best
    first: widest margin, then shortest candidate, then lexicographic.  The
    tolerances, the norms, a given rho_hat, the samples' dimension and the
    candidate scan's depth, and its budget while it walks, are checked before
    any offender scan; each scan has its own budget.
    """
    require_fraction("offender_tol", require_tol("offender_tol", offender_tol))
    require_tol("norm_check_tol", norm_check_tol, zero_ok=True)
    reps = _coerce_norms(norm_reps)
    if rho_hat is not None:
        _check_rho(rho_hat)
    if samples is not None:
        _check_samples(samples, t.d)
    if rho_hat is None:
        candidates, rho_hat = _candidates_and_midpoint(t, depth, budget)
    else:
        candidates = spectral_maximal_candidates(t, depth, budget=budget)
    return _search(t, candidates, reps, rho_hat, offender_tol, norm_check_tol, samples, budget)


def _search(t: MatrixTuple, candidates, reps, rho_hat, offender_tol, norm_check_tol, samples, budget):
    """characteristic_word_search's step after its checks: admit the norms once, scan each candidate, sort."""
    induced = _admit(t, reps, rho_hat, norm_check_tol, samples)
    reports = [_scan(t, w, induced, rho_hat, offender_tol, budget) for w, _ in candidates]
    reports.sort(key=lambda rep: (-rep.margin, rep.depth, rep.candidate))
    return reports
