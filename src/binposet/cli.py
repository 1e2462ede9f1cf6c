"""Command line front end.

Results go to stdout as tab-separated key/value rows; diagnostics go to
stderr.  Exit codes: 0 for pass/found/realizable, 1 for the checked
negative (fail/exhausted/non-realizable), 2 for unusable input or a file
that cannot be read or written, 3 for capped or undecided outcomes.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .classify import enumerate_interval_classes, phi
from .construct import (
    debruijn_poset,
    divisible_poset,
    m_interval,
    poset_from_string,
    stripped_boolean_interval,
)
from .core import (
    AtomicSequence,
    GradedPoset,
    PosetError,
    poset_from_json,
    poset_to_dot,
    poset_to_json,
    verify_binomial,
)
from .iso import CanonicalizationCapError
from .search import SearchLimits, extension_search
from .seqcheck import check_compatibility, decide_family

__all__ = ["main"]


class _Exit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise _Exit(2, f"cannot read {path}: {e}") from None


def _put(path: str | None, text: str) -> None:
    """Print ``text`` if ``path`` is None or "-", else write it to ``path``
    ending in a newline."""
    if path is None or path == "-":
        print(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as e:
        raise _Exit(2, f"cannot write {path}: {e}") from None


def _load_poset(path: str) -> GradedPoset:
    return poset_from_json(_read(path))


def _write_out(p: GradedPoset, out: str | None, dot: str | None) -> None:
    _put(out, poset_to_json(p))
    if dot is not None:
        _put(dot, poset_to_dot(p))


def _verdict_code(verdict: bool | str) -> int:
    """0 for a pass, "found" or "realizable"; 1 for a fail, "exhausted" or
    "non-realizable"; 3 otherwise (capped or undecided)."""
    if verdict in (True, "found", "realizable"):
        return 0
    return 1 if verdict in (False, "exhausted", "non-realizable") else 3


def _finish(
    rows: Sequence[tuple[str, object]],
    verdict: bool | str,
    detail: str = "",
    witness: GradedPoset | None = None,
    out: str | None = None,
) -> int:
    """Print ``rows``, then ``detail`` to stderr if there is one, write
    ``witness`` to ``out`` if both are given, and return the exit code."""
    for key, value in rows:
        print(f"{key}\t{value}")
    if detail:
        print(detail, file=sys.stderr)
    if witness is not None and out is not None:
        _write_out(witness, out, None)
    return _verdict_code(verdict)


def _cmd_build(args: argparse.Namespace) -> int:
    if args.kind == "string":
        if args.word is None:
            raise _Exit(2, "build string needs --word")
        p = poset_from_string(args.word, args.height)
    elif args.kind == "debruijn":
        if args.m is None or args.n is None or args.height is None:
            raise _Exit(2, "build debruijn needs --m, --n, and --height")
        p = debruijn_poset(args.m, args.n, args.height)
    elif args.kind == "boolean-strip":
        if args.n is None or args.k is None:
            raise _Exit(2, "build boolean-strip needs --n and --k")
        p = stripped_boolean_interval(args.n, args.k)
    elif args.kind == "m-interval":
        if args.m is None:
            raise _Exit(2, "build m-interval needs --m")
        p = m_interval(args.m)
    else:  # divisible
        if args.seq is None or args.height is None:
            raise _Exit(2, "build divisible needs --seq and --height")
        p = divisible_poset(AtomicSequence.parse(args.seq), args.height)
    _write_out(p, args.out, args.dot)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    p = _load_poset(args.poset)
    rep = verify_binomial(p)
    rows: list[tuple[str, object]] = [("ok", str(rep.ok).lower())]
    if rep.ok and rep.atoms is not None:
        rows.append(("atoms", rep.atoms.format()))
        assert rep.counts is not None
        rows.append(("chains", ",".join(str(rep.counts[d]) for d in sorted(rep.counts))))
    return _finish(rows, rep.ok, rep.detail)


def _cmd_classify(args: argparse.Namespace) -> int:
    p = _load_poset(args.poset)
    try:
        word = phi(p)
    except PosetError as e:
        print(str(e), file=sys.stderr)
        return 1
    return _finish([("phi", word)], True)


def _cmd_intervals(args: argparse.Namespace) -> int:
    p = _load_poset(args.poset)
    classification = enumerate_interval_classes(p, args.length)
    rows = [("length", classification.length), ("classes", classification.count)]
    for cls in classification.classes:
        rows.append(("class", f"{cls.certificate.hex()}\t{cls.bottom}\t{cls.top}\t{cls.size}"))
    return _finish(rows, True)


def _cmd_check_seq(args: argparse.Namespace) -> int:
    rep = check_compatibility(AtomicSequence.parse(args.seq), horizon=args.horizon)
    rows: list[tuple[str, object]] = [("ok", str(rep.ok).lower())]
    if not rep.ok:
        assert rep.witness is not None
        rows.append(("kind", rep.kind))
        rows.append(("witness", f"{rep.witness[0]},{rep.witness[1]}"))
        if rep.value is not None:
            rows.append(("value", rep.value))
    return _finish(rows, rep.ok, rep.detail)


def _cmd_decide(args: argparse.Namespace) -> int:
    decision = decide_family(AtomicSequence.parse(args.seq), witness_height=args.height)
    rows: list[tuple[str, object]] = [("verdict", decision.verdict)]
    if decision.recipe:
        rows.append(("recipe", decision.recipe))
    rows.append(("reason", decision.reason))
    return _finish(rows, decision.verdict, witness=decision.witness, out=args.out)


def _cmd_search_extension(args: argparse.Namespace) -> int:
    base = _load_poset(args.base)
    target = AtomicSequence.parse(args.target)
    limits = SearchLimits(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    res = extension_search(base, target, extra_ranks=args.extra_ranks, limits=limits)
    rows = [("verdict", res.verdict), ("nodes", res.nodes), ("classes", len(res.classes))]
    return _finish(rows, res.verdict, res.detail, res.witness, args.out)


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _put(args.out, poset_to_dot(_load_poset(args.poset)))
    return 0


def _poset_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("poset", help="poset JSON path, or - for stdin")


def _build_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "kind",
        choices=["string", "debruijn", "boolean-strip", "m-interval", "divisible"],
    )
    p.add_argument("--word", help="section word over {1,2} (string)")
    p.add_argument("--m", type=int, help="window size (debruijn) or m (m-interval)")
    p.add_argument("--n", type=int, help="alphabet size (debruijn) or atoms (boolean-strip)")
    p.add_argument("--k", type=int, help="number of glued copies (boolean-strip)")
    p.add_argument("--seq", help="atom sequence like 1,2,4 (divisible)")
    p.add_argument("--height", type=int, help="height of the truncation")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--dot", help="also write a DOT rendering here")


def _intervals_args(p: argparse.ArgumentParser) -> None:
    _poset_arg(p)
    p.add_argument("--length", type=int, required=True)


def _check_seq_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("seq", help="sequence like 1,2,6 or 1,1,2... (constant tail)")
    p.add_argument("--horizon", type=int, help="check pairs with i+j up to this")


def _decide_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("seq", help="sequence like 1,2,6 or 1,1,2...")
    p.add_argument("--height", type=int, help="witness height for unbounded families")
    p.add_argument("--out", help="write the witness poset JSON here")


def _search_extension_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("base", help="base poset JSON path, or - for stdin")
    p.add_argument("--target", required=True, help="target atom sequence")
    p.add_argument("--extra-ranks", type=int, default=1)
    p.add_argument("--max-nodes", type=int, default=SearchLimits().max_nodes)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--out", help="write the least-certificate witness JSON here")


def _export_dot_args(p: argparse.ArgumentParser) -> None:
    _poset_arg(p)
    p.add_argument("--out", help="output path (default stdout)")


# every subcommand, in help order: name, help line, argument setup, handler
_COMMANDS = (
    ("build", "construct a poset and write it as JSON", _build_args, _cmd_build),
    ("verify", "check the equal-chain-count property", _poset_arg, _cmd_verify),
    ("classify", "measure the section word of a truncation", _poset_arg, _cmd_classify),
    ("intervals", "count interval isomorphism classes", _intervals_args, _cmd_intervals),
    ("check-seq", "check the sequence growth condition", _check_seq_args, _cmd_check_seq),
    ("decide", "decide realizability for recognized families", _decide_args, _cmd_decide),
    (
        "search-extension",
        "search for upward extensions of a base",
        _search_extension_args,
        _cmd_search_extension,
    ),
    ("export-dot", "render a poset as DOT", _export_dot_args, _cmd_export_dot),
)


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser, holding every subcommand or ``command`` alone.

    A one-subcommand tree still names every subcommand in its usage line,
    which an unrecognized argument prints, so its messages are the full
    tree's."""
    ap = argparse.ArgumentParser(
        prog="binposet",
        description="Finite binomial poset truncations: build, verify, classify, search.",
    )
    names = "{" + ",".join(name for name, *_ in _COMMANDS) + "}"
    sub = ap.add_subparsers(
        dest="command", required=True, metavar=None if command is None else names
    )
    for name, help_line, add_args, handler in _COMMANDS:
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_args(p)
            p.set_defaults(func=handler)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a call builds only the subparser it names; anything else (no
    # arguments, -h, --, an unknown word) gets the full tree and its messages
    command = argv[0] if argv and any(argv[0] == name for name, *_ in _COMMANDS) else None
    ap = _parser(command)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _Exit as e:
        print(e.message, file=sys.stderr)
        return e.code
    except PosetError as e:
        print(str(e), file=sys.stderr)
        return 3 if isinstance(e, CanonicalizationCapError) else 2


if __name__ == "__main__":
    sys.exit(main())
