"""Evidence that a rotation class of products dominates the spectrum.

Given a candidate word and one or more extremal norms, scan every other
product of the same length and measure how far it falls short of the
growth rate rho_hat ** n.  Words that reach it anyway are reported as
offenders.  Everything here is sampled and finite-depth, so reports carry
an explicit caveat and never claim a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import bounds as jsr_bounds
from .bounds import spectral_maximal_candidates
from .config import DEFAULTS, pick
from .errors import InputError
from .norms import NormRep, _induced_norm, verify_barabanov
from .tuples import MatrixTuple, product_blocks
from .words import Word, format_word, rotation_class, validate_word, word_at, word_index

SFH_CAVEAT = (
    "numerical evidence only: norms were admitted by sampled verification and "
    "competing products were scanned at a single finite length, so this report "
    "supports but does not prove that the candidate class is spectrum-maximal"
)


@dataclass(frozen=True)
class SfhReport:
    """Scan result for one candidate rotation class.

    margin is the worst relative gap (rho_hat**n - max_z ||P_z||) / rho_hat**n
    over the admitted norms, where z runs over same-length words outside the
    candidate's rotation class.  offenders holds the words that closed the gap.
    """

    candidate: Word
    depth: int
    rho_hat: float
    margin: float
    offenders: tuple[tuple[Word, float], ...]
    norm_count: int

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


def sfh_evidence(
    t: MatrixTuple,
    omega: Word,
    norm_reps,
    rho_hat: float,
    *,
    offender_tol: float | None = None,
    norm_check_tol: float | None = None,
    samples=None,
    budget: int | None = None,
) -> SfhReport:
    """Scan all length-|omega| products outside omega's rotation class.

    Every supplied norm must first pass verify_barabanov at norm_check_tol;
    a rejected norm raises InputError since scanning under it would be
    meaningless.  An offender is a word whose induced norm reaches
    rho_hat ** |omega| up to offender_tol; offenders are pooled across norms
    and sorted.  samples, when given, feeds both the verification and any
    sampled matrix norms.
    """
    omega = validate_word(omega, t.r)
    if not math.isfinite(rho_hat) or rho_hat <= 0.0:
        raise InputError(f"rho_hat must be positive and finite, got {rho_hat}")
    offender_tol = pick(offender_tol, DEFAULTS.offender_tol)
    norm_check_tol = pick(norm_check_tol, DEFAULTS.norm_check_tol)
    budget = pick(budget, DEFAULTS.word_budget)
    reps = _coerce_norms(norm_reps)
    for rep in reps:
        check = verify_barabanov(t, rep, rho_hat, tol=norm_check_tol, samples=samples)
        if not check.passed:
            raise InputError(
                "norm rejected: sampled relative residual "
                f"{check.residual:.3e} exceeds {norm_check_tol:.1e}"
            )

    n = len(omega)
    target = rho_hat ** n
    omega_codes = [word_index(z, t.r) for z in rotation_class(omega)]
    real = t.field == "real"
    induced = [_induced_norm(rep, t.d, real=real, samples=samples) for rep in reps]
    threshold = target * (1.0 - offender_tol)
    level_max = [0.0] * len(reps)
    offender_values: dict[Word, float] = {}
    for codes, stack in product_blocks(t, n, budget=budget):
        other = ~np.isin(codes, omega_codes)
        codes, stack = codes[other], stack[other]
        if not len(codes):
            continue
        for i, norm_of in enumerate(induced):
            values = norm_of(stack)
            level_max[i] = max(level_max[i], float(np.max(values)))
            for j in np.flatnonzero(values >= threshold).tolist():
                z, value = word_at(codes[j], t.r, n), float(values[j])
                offender_values[z] = max(offender_values.get(z, 0.0), value)
    margin = min([1.0] + [(target - m) / target for m in level_max])
    offenders = tuple(sorted(offender_values.items()))
    return SfhReport(
        candidate=omega,
        depth=n,
        rho_hat=rho_hat,
        margin=margin,
        offenders=offenders,
        norm_count=len(reps),
    )


def characteristic_word_search(
    t: MatrixTuple,
    depth: int,
    norm_reps,
    rho_hat: float | None = None,
    *,
    tie_tol: float | None = None,
    offender_tol: float | None = None,
    norm_check_tol: float | None = None,
    samples=None,
    budget: int | None = None,
) -> list[SfhReport]:
    """Run sfh_evidence over every spectrum-maximal candidate up to depth.

    rho_hat defaults to the midpoint of the certified interval at the same
    depth.  Reports come back best first: widest margin, then shortest
    candidate, then lexicographic.
    """
    if rho_hat is None:
        b = jsr_bounds(t, depth, budget=budget)
        rho_hat = 0.5 * (b.lower + b.upper)
    reports = [
        sfh_evidence(
            t,
            w,
            norm_reps,
            rho_hat,
            offender_tol=offender_tol,
            norm_check_tol=norm_check_tol,
            samples=samples,
            budget=budget,
        )
        for w, _ in spectral_maximal_candidates(t, depth, tie_tol=tie_tol, budget=budget)
    ]
    reports.sort(key=lambda rep: (-rep.margin, rep.depth, rep.candidate))
    return reports
