"""Command-line front end over the analysis modules.

    jsrkit construct --example 1 --l1 0 --l2 0 > pair.json
    jsrkit bounds --input pair.json --depth 2
    jsrkit rank1 --input pair.json --depth 1
    jsrkit irreducible --input pair.json
    jsrkit barabanov approx --input pair.json
    jsrkit barabanov verify --input pair.json --norm maxnorm.json
    jsrkit sfh --input pair.json --word 1,2
    jsrkit words --alphabet 2 --length 3 --necklaces

construct emits the portable tuple JSON itself (plus a "truth" block), so
its output feeds straight back into every other command.  All other
commands wrap their result as {"command", "config", "result"} with sorted
keys; a fixed invocation produces byte-identical output.  config echoes
every option of the command (--format and --strict aside), with rho_hat
resolved to the value used.

Each command imports the modules it runs, so words and bounds load no
norm, structure or catalogue code, and each call builds the subparser of
the command it names only.  Records are created without dataclasses, so no
call pays for their import or generated code.  run, the process entry of
the console script and of python -m jsrkit.cli, ends the process itself:
once main has returned it flushes stdout and stderr and calls os._exit, so
the interpreter's finalisation (collections, and the teardown of numpy's
module graph) never runs.  It returns the code instead, for normal
finalisation, while a trace, profile or sys.monitoring hook or python -i
still has work to do at exit, or when a flush fails.  A reader that closes
the pipe early (jsrkit words ... | head -1) gets exit 1 and no traceback;
a refusal whose stderr reader has gone still exits 2.
main called from Python always returns, and leaves finalisation alone.

Exit codes: 0 success; 1 under --strict when a verdict stays Unknown, a
verification fails, an approximation does not converge, or an offender
scan reports offenders; 2 on bad input (malformed file, out-of-range
value, exhausted enumeration budget), a numerical failure or an allocation
that fails, with the reason on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bounds import _candidates_and_midpoint, finiteness_verified_at_depth
from .bounds import bounds as jsr_bounds
from .config import DEFAULTS, require_fraction, require_tol
from .errors import ConvergenceError, InputError
from .tuples import MatrixTuple, _dumps, from_json, to_json
from .words import parse_word, render_words, word_blocks


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_tuple(path: str) -> MatrixTuple:
    return from_json(_read_file(path))


def _load_norm(path: str):
    from .norms import norm_from_json_dict

    try:
        payload = json.loads(_read_file(path))
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"malformed norm JSON in {path}: {exc}") from exc
    return norm_from_json_dict(payload)


def _require_depth(depth: int) -> int:
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")
    return depth


def _text_lines(prefix: str, value, out: list[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _text_lines(f"{prefix}{key}." if prefix else f"{key}.", value[key], out)
    elif isinstance(value, (list, tuple)) and (
        len(value) > 12 or any(isinstance(x, (dict, list, tuple)) for x in value)
    ):
        for i, item in enumerate(value):
            _text_lines(f"{prefix}{i}.", item, out)
    else:
        out.append(f"{prefix.rstrip('.')} = {json.dumps(value)}")


_NOT_CONFIG = ("command", "mode", "func", "format", "strict")


def _emit(args, command: str, result, **overrides) -> None:
    if args.format == "json":
        config = dict(vars(args), **overrides)
        for name in _NOT_CONFIG:
            config.pop(name, None)
        payload = {"command": command, "config": config, "result": result}
        sys.stdout.write(_dumps(payload) + "\n")
    else:
        lines: list[str] = []
        _text_lines("", result, lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _rho(t: MatrixTuple, args):
    """(candidates, rho): None and --rho-hat if given, else the candidates of a
    search and the midpoint of the certified bounds at --depth, from one pass."""
    depth = _require_depth(args.depth)
    if args.rho_hat is not None:
        return None, args.rho_hat
    return _candidates_and_midpoint(t, depth, args.budget)


def _sample_directions(t: MatrixTuple, args):
    """Direction set for verification: explicit sphere draw, else planar mesh."""
    from .norms import circle_mesh, sphere_samples

    if getattr(args, "samples", None) is not None:
        return sphere_samples(t.d, args.samples, seed=args.seed, field=t.field)
    if t.field == "real" and t.d == 2:
        return circle_mesh(args.mesh)
    return None  # downstream raises with a pointer to --samples


def cmd_bounds(args) -> int:
    depth = _require_depth(args.depth)
    require_tol("close-tol", args.close_tol, zero_ok=True)
    t = _load_tuple(args.input)
    b = jsr_bounds(t, depth, budget=args.budget)
    result = b.to_json_dict()
    result["closed"] = finiteness_verified_at_depth(b, args.close_tol)
    _emit(args, "bounds", result)
    return 0


def cmd_rank1(args) -> int:
    from .structure import rank_one_property

    depth = _require_depth(args.depth)
    require_tol("tol", args.tol)
    t = _load_tuple(args.input)
    verdict = rank_one_property(t, depth, tol=args.tol, budget=args.budget)
    _emit(args, "rank1", verdict.to_json_dict())
    return 1 if args.strict and verdict.status == "Unknown" else 0


def cmd_irreducible(args) -> int:
    from .structure import is_irreducible

    require_fraction("tol", require_tol("tol", args.tol))
    t = _load_tuple(args.input)
    verdict = is_irreducible(t, drop_tol=args.tol, seed=args.seed, rounds=args.rounds)
    _emit(args, "irreducible", verdict.to_json_dict())
    return 1 if args.strict and verdict.status == "Unknown" else 0


def cmd_barabanov_approx(args) -> int:
    from .norms import approx_barabanov

    _require_depth(args.depth)
    require_tol("tol", args.step_tol)
    t = _load_tuple(args.input)
    _, rho = _rho(t, args)
    result = approx_barabanov(
        t, rho, mesh_size=args.mesh, max_iter=args.max_iter, step_tol=args.step_tol
    )
    _emit(args, "barabanov-approx", result.to_json_dict(), rho_hat=rho)
    return 1 if args.strict and not result.converged else 0


def cmd_barabanov_verify(args) -> int:
    from .norms import norm_to_json_dict, verify_barabanov

    require_tol("tol", args.tol, zero_ok=True)
    t = _load_tuple(args.input)
    norm = _load_norm(args.norm)
    _, rho = _rho(t, args)
    report = verify_barabanov(
        t, norm, rho, samples=_sample_directions(t, args), tol=args.tol
    )
    result = report.to_json_dict()
    result["norm"] = norm_to_json_dict(norm)
    _emit(args, "barabanov-verify", result, rho_hat=rho)
    return 1 if args.strict and not report.passed else 0


def cmd_sfh(args) -> int:
    from .finiteness import _search, characteristic_word_search, sfh_evidence
    from .norms import approx_barabanov

    _require_depth(args.depth)
    require_fraction("tol", require_tol("tol", args.offender_tol))
    require_tol("norm-check-tol", args.norm_check_tol, zero_ok=True)
    omega = parse_word(args.word) if args.word is not None else None
    t = _load_tuple(args.input)
    candidates, rho = _rho(t, args)
    directions = _sample_directions(t, args)
    if args.norms:
        reps = [_load_norm(path) for path in args.norms]
    else:
        approx = approx_barabanov(t, rho, mesh_size=args.mesh)
        if not approx.converged:
            raise InputError(
                "no norm supplied and the built-in approximation did not converge; "
                "pass --norm"
            )
        reps = [approx.norm]
    common = dict(
        offender_tol=args.offender_tol,
        norm_check_tol=args.norm_check_tol,
        samples=directions,
        budget=args.budget,
    )
    if omega is not None:
        reports = [sfh_evidence(t, omega, reps, rho, **common)]
    elif candidates is None:
        reports = characteristic_word_search(t, args.depth, reps, rho, **common)
    else:
        reports = _search(t, candidates, reps, rho, **common)
    result = {"reports": [rep.to_json_dict() for rep in reports]}
    _emit(args, "sfh", result, rho_hat=rho, norms=args.norms or "approximated")
    return 1 if args.strict and any(not rep.passed for rep in reports) else 0


def cmd_construct(args) -> int:
    from .constructions import characteristic_truth, characteristic_tuple, example_tuple

    if args.example is not None:
        t, truth = example_tuple(
            args.example, field=args.field, l1=args.l1, l2=args.l2, lam=args.lam
        )
    else:
        omega = parse_word(args.word)
        r = args.alphabet if args.alphabet is not None else max(omega)
        t = characteristic_tuple(r, len(omega), omega, field=args.field)
        truth = characteristic_truth(r, len(omega), omega)
    sys.stdout.write(to_json(t, extra={"truth": truth}))
    return 0


def cmd_words(args) -> int:
    blocks = word_blocks(args.alphabet, args.length, necklaces=args.necklaces,
                         primitive_only=args.primitive_only, budget=args.budget)
    texts = map(render_words, blocks)
    if args.format == "json":
        listed = [word for text in texts for word in text.splitlines()]
        _emit(args, "words", {"count": len(listed), "words": listed})
    else:
        for text in texts:  # one write per block
            sys.stdout.write(text)
    return 0


def _add_io(p):
    p.add_argument("--input", required=True, help="path to tuple JSON")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 on Unknown / failed / non-converged results")


# every command, in the order build_parser adds them
_COMMANDS = ("bounds", "rank1", "irreducible", "barabanov", "sfh", "construct", "words")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The jsrkit parser; given a command name, with that command's subparser only."""
    parser = argparse.ArgumentParser(
        prog="jsrkit",
        description="Joint-spectral-radius analysis of finite matrix tuples.",
    )
    # one subparser still names every command in the usage line that top-level errors
    # print; the full parser keeps None, so its invalid-choice error names "command"
    every = "{" + ",".join(_COMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    wanted = _COMMANDS if command is None else (command,)

    if "bounds" in wanted:
        p = sub.add_parser("bounds", help="certified lower/upper bounds")
        _add_io(p)
        p.add_argument("--depth", type=int, default=DEFAULTS.depth)
        p.add_argument("--budget", type=int, default=DEFAULTS.word_budget)
        p.add_argument("--close-tol", type=float, default=DEFAULTS.close_tol)
        p.set_defaults(func=cmd_bounds)

    if "rank1" in wanted:
        p = sub.add_parser("rank1", help="exterior-square rank-one test")
        _add_io(p)
        p.add_argument("--depth", type=int, default=DEFAULTS.depth)
        p.add_argument("--budget", type=int, default=DEFAULTS.word_budget)
        p.add_argument("--tol", type=float, default=DEFAULTS.rank_one_tol)
        p.set_defaults(func=cmd_rank1)

    if "irreducible" in wanted:
        p = sub.add_parser("irreducible", help="common-invariant-subspace test")
        _add_io(p)
        p.add_argument("--tol", type=float, default=DEFAULTS.span_drop_tol)
        p.add_argument("--seed", type=int, default=DEFAULTS.seed)
        p.add_argument("--rounds", type=int, default=DEFAULTS.witness_rounds)
        p.set_defaults(func=cmd_irreducible)

    if "barabanov" in wanted:
        p = sub.add_parser("barabanov", help="extremal norm approximation/verification")
        mode = p.add_subparsers(dest="mode", required=True)

        pa = mode.add_parser("approx", help="planar mesh fixed-point iteration")
        _add_io(pa)
        pa.add_argument("--rho-hat", type=float, default=None,
                        help="defaults to the midpoint of certified bounds")
        pa.add_argument("--depth", type=int, default=DEFAULTS.depth)
        pa.add_argument("--budget", type=int, default=DEFAULTS.word_budget)
        pa.add_argument("--mesh", type=int, default=DEFAULTS.mesh_size)
        pa.add_argument("--max-iter", type=int, default=DEFAULTS.max_iter)
        pa.add_argument("--tol", dest="step_tol", metavar="TOL", type=float,
                        default=DEFAULTS.step_tol)
        pa.set_defaults(func=cmd_barabanov_approx)

        pv = mode.add_parser("verify", help="sampled functional-equation residual")
        _add_io(pv)
        pv.add_argument("--norm", required=True, help="path to norm JSON")
        pv.add_argument("--rho-hat", type=float, default=None)
        pv.add_argument("--depth", type=int, default=DEFAULTS.depth)
        pv.add_argument("--budget", type=int, default=DEFAULTS.word_budget)
        pv.add_argument("--mesh", type=int, default=DEFAULTS.mesh_size)
        pv.add_argument("--samples", type=int, default=None,
                        help="random sphere directions (needed when d > 2 or complex)")
        pv.add_argument("--seed", type=int, default=DEFAULTS.seed)
        pv.add_argument("--tol", type=float, default=DEFAULTS.verify_tol)
        pv.set_defaults(func=cmd_barabanov_verify)

    if "sfh" in wanted:
        p = sub.add_parser("sfh", help="offender scan for a candidate word")
        _add_io(p)
        p.add_argument("--word", default=None, help="candidate word; omit to search")
        p.add_argument("--norm", dest="norms", metavar="NORM", action="append", default=None,
                       help="path to norm JSON; repeatable; omit to approximate one")
        p.add_argument("--rho-hat", type=float, default=None)
        p.add_argument("--depth", type=int, default=DEFAULTS.depth)
        p.add_argument("--budget", type=int, default=DEFAULTS.word_budget)
        p.add_argument("--mesh", type=int, default=DEFAULTS.mesh_size)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=DEFAULTS.seed)
        p.add_argument("--norm-check-tol", type=float, default=DEFAULTS.norm_check_tol)
        p.add_argument("--tol", dest="offender_tol", metavar="TOL", type=float,
                       default=DEFAULTS.offender_tol, help="offender admission tolerance")
        p.set_defaults(func=cmd_sfh)

    if "construct" in wanted:
        p = sub.add_parser("construct", help="emit a reference tuple as JSON")
        what = p.add_mutually_exclusive_group(required=True)
        what.add_argument("--example", type=int, default=None, help="catalogue id 1..5")
        what.add_argument("--word", default=None, help="characteristic word, e.g. 1,2,2")
        p.add_argument("--alphabet", type=int, default=None,
                       help="alphabet size for --word (default: largest letter)")
        p.add_argument("--field", choices=("real", "complex"), default="real")
        p.add_argument("--l1", type=complex, default=None)
        p.add_argument("--l2", type=complex, default=None)
        p.add_argument("--lam", type=complex, default=None)
        p.set_defaults(func=cmd_construct)

    if "words" in wanted:
        p = sub.add_parser("words", help="list words or necklace representatives")
        p.add_argument("--alphabet", type=int, required=True)
        p.add_argument("--length", type=int, required=True)
        p.add_argument("--necklaces", action="store_true",
                       help="one representative per rotation class")
        p.add_argument("--primitive-only", action="store_true")
        p.add_argument("--budget", type=int, default=DEFAULTS.word_budget)
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.set_defaults(func=cmd_words)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, no arguments and unknown names get the full parser and its messages
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        return _refuse(f"error: {exc}")
    except ConvergenceError as exc:
        return _refuse(f"numerical failure: {exc}")
    except MemoryError as exc:  # e.g. --mesh or --samples far past the address space
        return _refuse(f"out of memory: {str(exc) or 'allocation failed'}")


def _to_devnull(stream) -> None:
    """Point stream's file descriptor at os.devnull, so that nothing more written to it fails."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _refuse(reason: str) -> int:
    """Write the one-line reason to stderr and return 2, the code of a refusal, even if stderr's reader has gone."""
    try:
        print(reason, file=sys.stderr)
    except BrokenPipeError:
        _to_devnull(sys.stderr)
    return 2


def _exit_has_work() -> bool:
    """True while something still runs at exit: a trace or profile hook, a sys.monitoring tool or python -i."""
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, whose cProfile is a tool (ids 0..5)
    return (sys.gettrace() is not None or sys.getprofile() is not None or bool(sys.flags.inspect)
            or (monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))))


def _flushed() -> bool:
    """Flush stdout, then stderr: False if either raises, other than BrokenPipeError, which propagates."""
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        raise
    except (OSError, ValueError):  # ValueError: a closed file
        return False
    return True


def run() -> int:
    """Process entry: main(), flush stdout and stderr, then os._exit(code), with no finalisation.

    --help, usage errors and uncaught exceptions leave as main raises them.
    The code is returned instead, for the caller's sys.exit and normal
    finalisation, when a flush fails or _exit_has_work().  A BrokenPipeError
    from main or a flush (a reader that closed stdout early) points stdout
    at os.devnull, so that finalisation writes nothing more to the pipe, and
    returns 1 with no traceback.
    """
    try:
        code = main()
        flushed = _flushed()
    except BrokenPipeError:  # the recipe of the signal module's documentation
        _to_devnull(sys.stdout)
        return 1
    # jsrkit writes only through stdout and stderr, and registers no atexit
    # handler, so once both are flushed os._exit loses nothing of its own
    if flushed and not _exit_has_work():
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(run())
