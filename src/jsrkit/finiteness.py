"""Evidence that a rotation class of products dominates the spectrum.

Given a candidate word and one or more extremal norms, scan every other
product of the same length and measure how far it falls short of the
growth rate rho_hat ** n.  Words that reach it anyway are reported as
offenders.  Everything here is sampled and finite-depth, so reports carry
an explicit caveat and never claim a proof.
"""

from __future__ import annotations

import numpy as np

from .bounds import _candidates_and_midpoint, spectral_maximal_candidates
from .config import DEFAULTS, _Record, require_fraction, require_tol
from .errors import InputError
from .norms import NormRep, _check_rho, _check_samples, _induced_norm, verify_barabanov
from .tuples import MatrixTuple, off_class_blocks
from .words import Word, _words_at, format_word, validate_word

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
    rows that the scan's walk asks about, the one product walk
    (tuples._PrefixStore) that tuples.off_class_blocks runs.

    Only competitors that can change the report are evaluated.  Per block and
    per norm, each product P gets an upper bound on its computed induced
    value, cap * c with cap its linalg.op_norm_caps value, which the walk
    yields with the block, and c a constant of the norm and its
    directions (norms._induced_norm; the bound is inf where the evaluation
    could overflow or underflow).  The product with the largest bound is
    evaluated first, then every product whose bound is not strictly below
    min(threshold, level maximum so far).  A skipped product's value lies
    strictly below the threshold, so it is no offender, and strictly below a
    value the level maximum already holds, so it cannot raise it: margin and
    offenders are bitwise those of a scan that evaluates every competitor.
    """
    omega = validate_word(omega, t.r)
    require_fraction("offender_tol", require_tol("offender_tol", offender_tol))
    require_tol("norm_check_tol", norm_check_tol, zero_ok=True)
    induced = _admit(t, norm_reps, rho_hat, norm_check_tol, samples)
    return _scan(t, omega, induced, rho_hat, offender_tol, budget)


def _target(rho_hat: float, n: int) -> float:
    """rho_hat ** n, the growth rate a scan compares against; InputError unless positive and finite."""
    try:
        target = rho_hat ** n
    except OverflowError:  # a float power raises where numpy would return inf
        target = np.inf
    if not 0.0 < target < np.inf:
        raise InputError(f"rho_hat ** {n} = {target} leaves the float range; rescale the tuple")
    return target


def _scan(t: MatrixTuple, omega: Word, induced, rho_hat: float, offender_tol: float, budget: int) -> SfhReport:
    """sfh_evidence's screened offender scan under induced maps that _admit returned.
    A zero competitor, which tuples.off_class_blocks skips, has value 0: no offender, no new maximum."""
    n = len(omega)
    target = _target(rho_hat, n)
    threshold = target * (1.0 - offender_tol)
    level_max = [0.0] * len(induced)
    offender_values: dict[Word, float] = {}
    for digits, _, caps, stack in off_class_blocks(t, omega, budget):
        for i, (norm_of, bound_of) in enumerate(induced):
            bound = bound_of(caps)
            values = np.full(len(stack), -np.inf)  # a skipped row stays below both tests
            top = int(np.argmax(bound))
            values[top] = norm_of(stack[top:top + 1])[0]
            # a NaN bound compares False and keeps its row
            live = ~(bound < min(threshold, max(level_max[i], values[top])))
            live[top] = False
            if live.any():
                values[live] = norm_of(stack[live])
            level_max[i] = max(level_max[i], float(np.max(values)))
            hits = np.flatnonzero(values >= threshold)
            for z, value in zip(_words_at(digits[hits]), values[hits].tolist()):
                offender_values[z] = max(offender_values.get(z, 0.0), value)
    margin = min([1.0] + [(target - m) / target for m in level_max])
    offenders = tuple(sorted(offender_values.items()))
    return SfhReport(
        candidate=omega,
        depth=n,
        rho_hat=rho_hat,
        margin=margin,
        offenders=offenders,
        norm_count=len(induced),
    )


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
