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


def _emit(rows: Sequence[tuple[str, object]]) -> None:
    for key, value in rows:
        print(f"{key}\t{value}")


def _write_out(p: GradedPoset, out: str | None, dot: str | None) -> None:
    _put(out, poset_to_json(p))
    if dot is not None:
        _put(dot, poset_to_dot(p))


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
    _emit(rows)
    if not rep.ok:
        print(rep.detail, file=sys.stderr)
        return 1
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    p = _load_poset(args.poset)
    try:
        word = phi(p)
    except PosetError as e:
        print(str(e), file=sys.stderr)
        return 1
    _emit([("phi", word)])
    return 0


def _cmd_intervals(args: argparse.Namespace) -> int:
    p = _load_poset(args.poset)
    classification = enumerate_interval_classes(p, args.length)
    _emit([("length", classification.length), ("classes", classification.count)])
    for cls in classification.classes:
        print(f"class\t{cls.certificate.hex()}\t{cls.bottom}\t{cls.top}\t{cls.size}")
    return 0


def _cmd_check_seq(args: argparse.Namespace) -> int:
    rep = check_compatibility(AtomicSequence.parse(args.seq), horizon=args.horizon)
    rows: list[tuple[str, object]] = [("ok", str(rep.ok).lower())]
    if not rep.ok:
        assert rep.witness is not None
        rows.append(("kind", rep.kind))
        rows.append(("witness", f"{rep.witness[0]},{rep.witness[1]}"))
        if rep.value is not None:
            rows.append(("value", rep.value))
    _emit(rows)
    if not rep.ok:
        print(rep.detail, file=sys.stderr)
        return 1
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    decision = decide_family(AtomicSequence.parse(args.seq), witness_height=args.height)
    rows: list[tuple[str, object]] = [("verdict", decision.verdict)]
    if decision.recipe:
        rows.append(("recipe", decision.recipe))
    rows.append(("reason", decision.reason))
    _emit(rows)
    if decision.witness is not None and args.out is not None:
        _write_out(decision.witness, args.out, None)
    if decision.verdict == "realizable":
        return 0
    if decision.verdict == "non-realizable":
        return 1
    return 3


def _cmd_search_extension(args: argparse.Namespace) -> int:
    base = _load_poset(args.base)
    target = AtomicSequence.parse(args.target)
    limits = SearchLimits(max_nodes=args.max_nodes, max_seconds=args.max_seconds)
    res = extension_search(base, target, extra_ranks=args.extra_ranks, limits=limits)
    _emit([("verdict", res.verdict), ("nodes", res.nodes), ("classes", len(res.classes))])
    if res.detail:
        print(res.detail, file=sys.stderr)
    if res.witness is not None and args.out is not None:
        _write_out(res.witness, args.out, None)
    if res.verdict == "found":
        return 0
    if res.verdict == "exhausted":
        return 1
    return 3


def _cmd_export_dot(args: argparse.Namespace) -> int:
    _put(args.out, poset_to_dot(_load_poset(args.poset)))
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="binposet",
        description="Finite binomial poset truncations: build, verify, classify, search.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a poset and write it as JSON")
    b.add_argument(
        "kind",
        choices=["string", "debruijn", "boolean-strip", "m-interval", "divisible"],
    )
    b.add_argument("--word", help="section word over {1,2} (string)")
    b.add_argument("--m", type=int, help="window size (debruijn) or m (m-interval)")
    b.add_argument("--n", type=int, help="alphabet size (debruijn) or atoms (boolean-strip)")
    b.add_argument("--k", type=int, help="number of glued copies (boolean-strip)")
    b.add_argument("--seq", help="atom sequence like 1,2,4 (divisible)")
    b.add_argument("--height", type=int, help="height of the truncation")
    b.add_argument("--out", help="output JSON path (default stdout)")
    b.add_argument("--dot", help="also write a DOT rendering here")
    b.set_defaults(func=_cmd_build)

    v = sub.add_parser("verify", help="check the equal-chain-count property")
    v.add_argument("poset", help="poset JSON path, or - for stdin")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("classify", help="measure the section word of a truncation")
    c.add_argument("poset", help="poset JSON path, or - for stdin")
    c.set_defaults(func=_cmd_classify)

    i = sub.add_parser("intervals", help="count interval isomorphism classes")
    i.add_argument("poset", help="poset JSON path, or - for stdin")
    i.add_argument("--length", type=int, required=True)
    i.set_defaults(func=_cmd_intervals)

    s = sub.add_parser("check-seq", help="check the sequence growth condition")
    s.add_argument("seq", help="sequence like 1,2,6 or 1,1,2... (constant tail)")
    s.add_argument("--horizon", type=int, help="check pairs with i+j up to this")
    s.set_defaults(func=_cmd_check_seq)

    d = sub.add_parser("decide", help="decide realizability for recognized families")
    d.add_argument("seq", help="sequence like 1,2,6 or 1,1,2...")
    d.add_argument("--height", type=int, help="witness height for unbounded families")
    d.add_argument("--out", help="write the witness poset JSON here")
    d.set_defaults(func=_cmd_decide)

    x = sub.add_parser("search-extension", help="search for upward extensions of a base")
    x.add_argument("base", help="base poset JSON path, or - for stdin")
    x.add_argument("--target", required=True, help="target atom sequence")
    x.add_argument("--extra-ranks", type=int, default=1)
    x.add_argument("--max-nodes", type=int, default=SearchLimits().max_nodes)
    x.add_argument("--max-seconds", type=float, default=None)
    x.add_argument("--out", help="write the least-certificate witness JSON here")
    x.set_defaults(func=_cmd_search_extension)

    e = sub.add_parser("export-dot", help="render a poset as DOT")
    e.add_argument("poset", help="poset JSON path, or - for stdin")
    e.add_argument("--out", help="output path (default stdout)")
    e.set_defaults(func=_cmd_export_dot)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    ap = _parser()
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
        return 2


if __name__ == "__main__":
    sys.exit(main())
