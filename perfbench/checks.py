"""Output checks for benchmark ops.

Every check recomputes what it can with numpy, independently of jsrkit, or
compares against the truth block that `jsrkit construct` embeds in the
catalogue fixtures.  A check raises CheckError on the first problem it finds.
Checks read only the keys they know, so extra keys in a report (for example a
future `stats` block) never fail an op.
"""

from __future__ import annotations

import json
import math
from itertools import combinations, product

import numpy as np

REL = 1e-12  # relative slack for recomputed floats and interval containment
RESIDUAL_REL = 1e-9  # recomputed verification residuals
INVARIANCE_TOL = 1e-8  # refuted-irreducibility witness subspaces


class CheckError(Exception):
    """An op's output failed a check."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def parse_word(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def format_word(w) -> str:
    return ",".join(str(x) for x in w)


def matrices(payload: dict) -> list[np.ndarray]:
    require(payload.get("field") == "real", "benchmark tuples are real")
    return [np.array(m, dtype=float) for m in payload["matrices"]]


def product_along(mats, w) -> np.ndarray:
    out = mats[w[0] - 1]
    for letter in w[1:]:
        out = mats[letter - 1] @ out
    return out


def spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def op_norm(a: np.ndarray) -> float:
    return float(np.linalg.svd(a, compute_uv=False)[0])


def exterior_square(a: np.ndarray) -> np.ndarray:
    pairs = np.array(list(combinations(range(a.shape[0]), 2)))
    i, j = pairs[:, 0], pairs[:, 1]
    return a[np.ix_(i, i)] * a[np.ix_(j, j)] - a[np.ix_(i, j)] * a[np.ix_(j, i)]


def all_products(mats, n: int) -> np.ndarray:
    """Stack of P_w for every word of length n, in lexicographic word order."""
    stack = np.stack(mats)
    slots = stack
    r = len(mats)
    for _ in range(n - 1):
        stack = (slots[None, :] @ stack[:, None]).reshape(len(stack) * r, *slots.shape[1:])
    return stack


def necklace_count(r: int, n: int) -> int:
    """Number of rotation classes of length-n words over r letters."""
    phi = [sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1) for k in range(n + 1)]
    return sum(phi[k] * r ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


def rotations(w) -> set:
    return {tuple(w[k:]) + tuple(w[:k]) for k in range(len(w))}


# --- vector norms, mirroring the documented JSON norm variants -------------

def mesh_interp(angles, values, pts: np.ndarray) -> np.ndarray:
    radii = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), np.pi)
    theta = np.where(theta >= np.pi, 0.0, theta)
    grid = np.append(angles, np.pi)
    vals = np.append(values, values[0])
    return np.where(radii > 0.0, radii * np.interp(theta, grid, vals), 0.0)


def eval_norm(norm: dict, pts: np.ndarray) -> np.ndarray:
    """Norm of each row (last axis) of pts."""
    variant = norm["variant"]
    if variant == "weighted_max":
        return np.max(np.abs(pts) * np.asarray(norm["weights"]), axis=-1)
    if variant == "ellp":
        scaled = np.abs(pts)
        if norm.get("weights") is not None:
            scaled = scaled * np.asarray(norm["weights"])
        return np.sum(scaled ** norm["p"], axis=-1) ** (1.0 / norm["p"])
    if variant == "mesh":
        return mesh_interp(np.asarray(norm["angles"]), np.asarray(norm["values"]), pts)
    raise CheckError(f"unknown norm variant {variant!r}")


def circle_mesh(count: int) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.column_stack([np.cos(theta), np.sin(theta)])


def sphere_samples(d: int, count: int, seed: int) -> np.ndarray:
    pts = np.random.default_rng(seed).standard_normal((count, d))
    return pts / np.linalg.norm(pts, axis=1)[:, None]


def matrix_norms(norm: dict, stack: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Induced norm of every matrix in a (k, d, d) stack, as jsrkit defines it.

    Weighted max norms are maximized over the box corners (exact); other
    norms over the given sample directions.
    """
    if norm["variant"] == "weighted_max":
        w = np.asarray(norm["weights"])
        pts = np.array(list(product((-1.0, 1.0), repeat=len(w)))) / w
    else:
        pts = samples
    base = eval_norm(norm, pts)
    out = np.empty(len(stack))
    chunk = 64
    for s in range(0, len(stack), chunk):
        images = np.einsum("kij,pj->kpi", stack[s:s + chunk], pts)
        out[s:s + chunk] = np.max(eval_norm(norm, images) / base, axis=1)
    return out


def verification_residual(mats, norm: dict, rho_hat: float, pts: np.ndarray) -> float:
    base = eval_norm(norm, pts)
    top = np.max(np.stack([eval_norm(norm, pts @ a.T) for a in mats]), axis=0)
    return float(np.max(np.abs(top - rho_hat * base) / base))


# --- report checks ------------------------------------------------------

def _report(stdout: str, command: str) -> tuple[dict, dict]:
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"stdout is not JSON: {exc}") from None
    require(payload.get("command") == command, f"expected a {command} report")
    return payload["config"], payload["result"]


def _directions(config: dict, d: int) -> np.ndarray:
    """The sample directions the CLI uses: --samples on the sphere, else the circle mesh."""
    if config["samples"]:
        return sphere_samples(d, config["samples"], config["seed"])
    return circle_mesh(config["mesh"])


def check_interval(b: dict, mats, *, depth: int, jsr: float | None) -> None:
    """lower <= upper, witness reproduces lower, slot bounds, truth containment."""
    lower, upper = b["lower"], b["upper"]
    require(b["depth"] == depth and not b["partial"], f"depth {b['depth']} partial {b['partial']}")
    require(lower <= upper * (1 + REL), f"lower {lower} above upper {upper}")
    w = parse_word(b["witness"])
    again = spectral_radius(product_along(mats, w)) ** (1.0 / len(w))
    require(rel_close(again, lower, REL), f"witness {b['witness']} gives {again}, lower is {lower}")
    top_rho = max(spectral_radius(a) for a in mats)
    top_norm = max(op_norm(a) for a in mats)
    require(top_rho <= lower * (1 + REL), f"lower {lower} below largest slot radius {top_rho}")
    require(upper <= top_norm * (1 + REL), f"upper {upper} above largest slot norm {top_norm}")
    if jsr is not None:
        require(lower <= jsr * (1 + REL) and upper >= jsr * (1 - REL),
                f"[{lower}, {upper}] excludes the true jsr {jsr}")


def bounds_check(tuple_name: str, depth: int):
    def check(stdout: str, inputs: dict) -> None:
        _, result = _report(stdout, "bounds")
        payload = inputs[tuple_name]
        jsr = payload.get("truth", {}).get("jsr")
        check_interval(result, matrices(payload), depth=depth, jsr=jsr)
        closed = result["upper"] - result["lower"] <= 1e-9 * result["upper"]
        require(result["closed"] == closed, "closed flag disagrees with the interval")
    return check


def rank1_check(tuple_name: str, depth: int, tol: float = 1e-9):
    def check(stdout: str, inputs: dict) -> None:
        _, result = _report(stdout, "rank1")
        payload = inputs[tuple_name]
        mats = matrices(payload)
        truth = payload.get("truth", {})
        ev = result["evidence"]
        b, bw = ev["bounds"], ev["wedge_bounds"]
        check_interval(b, mats, depth=depth, jsr=truth.get("jsr"))
        check_interval(bw, [exterior_square(a) for a in mats], depth=depth, jsr=None)
        if bw["upper"] == 0.0 or bw["upper"] < b["lower"] ** 2 * (1 - tol):
            status = "Certified"
        elif bw["lower"] >= b["upper"] ** 2 * (1 - tol):
            status = "Refuted"
        else:
            status = "Unknown"
        require(result["status"] == status, f"status {result['status']}, evidence says {status}")
        flag = truth.get("flags", {}).get("rank_one")
        if flag is not None and status != "Unknown":
            require((status == "Certified") == flag, f"status {status} contradicts truth {flag}")
    return check


def sfh_word_check(tuple_name: str, norm_name: str, word: str, *, expect_pass: bool,
                   offender_tol: float = 1e-6):
    """Recomputes every competitor's induced norm, so margin and offenders are checked."""
    def check(stdout: str, inputs: dict) -> None:
        config, result = _report(stdout, "sfh")
        mats = matrices(inputs[tuple_name])
        norm = inputs[norm_name]
        (rep,) = result["reports"]
        omega = parse_word(word)
        n = len(omega)
        rho_hat = config["rho_hat"]
        require(rep["candidate"] == word and rep["depth"] == n, "wrong candidate")
        require(rep["norm_count"] == 1, "expected one norm")
        target = rho_hat ** n
        words = list(product(range(1, len(mats) + 1), repeat=n))
        samples = _directions(config, mats[0].shape[0])
        values = matrix_norms(norm, all_products(mats, n), samples)
        skip = rotations(omega)
        keep = np.array([w not in skip for w in words])
        level_max = float(np.max(values[keep]))
        margin = min(1.0, (target - level_max) / target)
        require(abs(rep["margin"] - margin) <= RESIDUAL_REL * max(1.0, abs(margin)),
                f"margin {rep['margin']}, recomputed {margin}")
        want = {format_word(w): v for w, v, k in zip(words, values, keep)
                if k and v >= target * (1 - offender_tol)}
        got = {o["word"]: o["value"] for o in rep["offenders"]}
        require(set(got) == set(want), f"offenders {sorted(got)[:5]}, recomputed {sorted(want)[:5]}")
        for w, v in got.items():
            require(rel_close(v, want[w], RESIDUAL_REL), f"offender {w} value {v} vs {want[w]}")
        require(rep["passed"] == (not got), "passed flag disagrees with offenders")
        require(rep["passed"] == expect_pass, f"expected passed={expect_pass}")
    return check


def sfh_search_check(tuple_name: str):
    """The catalogue's characteristic word is found and passes its scan."""
    def check(stdout: str, inputs: dict) -> None:
        config, result = _report(stdout, "sfh")
        truth = inputs[tuple_name]["truth"]
        reports = result["reports"]
        require(reports, "no candidate reports")
        order = [(-r["margin"], r["depth"], parse_word(r["candidate"])) for r in reports]
        require(order == sorted(order), "reports are not sorted best first")
        require(config["norms"] == "approximated", "expected an approximated norm")
        for rep in reports:
            require(rep["passed"] == (not rep["offenders"]), "passed flag disagrees")
            require(rep["margin"] <= 1.0, "margin above 1")
        best = {r["candidate"]: r for r in reports}.get(truth["characteristic_word"])
        require(best is not None, f"characteristic word {truth['characteristic_word']} not found")
        require(best["passed"] and best["margin"] > 0, "characteristic word has offenders")
    return check


def words_check(r: int, n: int, fmt: str):
    def check(stdout: str, inputs: dict) -> None:
        if fmt == "json":
            _, result = _report(stdout, "words")
            listed = result["words"]
            require(result["count"] == len(listed), "count disagrees with the list")
        else:
            listed = stdout.splitlines()
        words = [parse_word(w) for w in listed]
        require(len(words) == necklace_count(r, n),
                f"{len(words)} necklaces, expected {necklace_count(r, n)}")
        require(all(len(w) == n and 1 <= min(w) and max(w) <= r for w in words), "bad letters")
        require(all(a < b for a, b in zip(words, words[1:])), "not strictly increasing")
        require(all(w == min(rotations(w)) for w in words), "not least rotations")
    return check


def construct_check(word: str, r: int):
    """Characteristic tuple: truth block, rho(P_omega) = 1 at rank 1, off-class products vanish."""
    def check(stdout: str, inputs: dict) -> None:
        payload = json.loads(stdout)
        truth = payload["truth"]
        omega = parse_word(word)
        n = len(omega)
        require(truth["characteristic_word"] == word and truth["jsr"] == 1.0, "wrong truth block")
        require(payload["r"] == r and payload["d"] == n, "wrong shape")
        mats = matrices(payload)
        p = product_along(mats, omega)
        require(abs(spectral_radius(p) - 1.0) < REL, "rho(P_omega) != 1")
        s = np.linalg.svd(p, compute_uv=False)
        require(s[1] <= 1e-9 * s[0], "P_omega is not rank one")
        used = max(omega)
        require(all(abs(op_norm(a) - 1.0) < REL for a in mats[:used]), "base slot norm != 1")
        stack = all_products(mats[:used], n)
        skip = rotations(omega)
        for w, q in zip(product(range(1, used + 1), repeat=n), stack):
            if w not in skip:
                require(not np.any(q), f"off-class product {format_word(w)} does not vanish")
    return check


def irreducible_check(tuple_name: str, status: str, dimension: int | None = None):
    def check(stdout: str, inputs: dict) -> None:
        _, result = _report(stdout, "irreducible")
        ev = result["evidence"]
        require(result["status"] == status, f"status {result['status']}, expected {status}")
        if dimension is not None:
            require(ev["algebra_dimension"] == dimension,
                    f"algebra dimension {ev['algebra_dimension']}, expected {dimension}")
        if status == "Refuted":
            mats = matrices(inputs[tuple_name])
            w = np.array(ev["basis"], dtype=float).T
            k = w.shape[1]
            require(0 < k < mats[0].shape[0] and ev["subspace_dimension"] == k, "bad subspace")
            require(np.allclose(w.T @ w, np.eye(k), atol=1e-10), "basis not orthonormal")
            for a in mats:
                image = a @ w
                resid = np.linalg.norm(image - w @ (w.T @ image), 2) / max(1.0, op_norm(a))
                require(resid <= INVARIANCE_TOL, f"subspace not invariant: residual {resid}")
    return check


def verify_check(tuple_name: str, norm_name: str, *, expect_pass: bool | None):
    """Recompute the sampled functional-equation residual."""
    def check(stdout: str, inputs: dict) -> None:
        config, result = _report(stdout, "barabanov-verify")
        mats = matrices(inputs[tuple_name])
        norm = inputs[norm_name]
        pts = _directions(config, mats[0].shape[0])
        resid = verification_residual(mats, norm, config["rho_hat"], pts)
        require(result["sample_count"] == len(pts), "wrong sample count")
        require(rel_close(result["residual"], resid, RESIDUAL_REL),
                f"residual {result['residual']}, recomputed {resid}")
        require(result["passed"] == (resid <= config["tol"]), "passed flag disagrees")
        if expect_pass is not None:
            require(result["passed"] == expect_pass, f"expected passed={expect_pass}")
    return check


def approx_check(tuple_name: str, norm_name: str):
    """Converged mesh norm that one more sweep leaves in place, equal to the set-up copy."""
    def check(stdout: str, inputs: dict) -> None:
        config, result = _report(stdout, "barabanov-approx")
        require(result["converged"], "approximation did not converge")
        norm = result["norm"]
        require(norm == inputs[norm_name], "norm differs from the set-up run")
        mats = matrices(inputs[tuple_name])
        angles = np.asarray(norm["angles"])
        values = np.asarray(norm["values"])
        require(len(angles) == config["mesh"] and values[0] == 1.0, "bad mesh")
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        nxt = np.max([mesh_interp(angles, values, pts @ a.T) for a in mats], axis=0)
        nxt = nxt / config["rho_hat"]
        step = float(np.max(np.abs(np.log(nxt / nxt[0] / values))))
        require(step <= 10 * config["step_tol"], f"not a fixed point: one more sweep moves {step}")
    return check
