"""The three benchmark workloads: inputs made from a seed, the fixed task
list of each, and the answer check of every task.

Each workload acts as one caller that issues its next task only after the
previous one returns (a closed loop with one client).  The seed only
draws inputs (the census word, the relabellings, the neighbour word); the
library receives nothing else from it.

interval-census
    ``enumerate_interval_classes`` for lengths 2..7 on the word poset of
    ``versal_string(3)`` and of a seeded word.  Thousands of small,
    highly repetitive canonical inputs with a handful of classes, so the
    ``iso`` layer does most of the work and a memo or faster refinement
    shows its full effect.
poset-pipeline
    The README's CLI commands through ``cli.main`` (JSON and DOT written
    to a temporary directory and read back), the all-pairs sweep on a
    2,407-element poset, and ``canonical_form`` of few, large,
    all-distinct posets against seed-relabelled copies.  A memo is
    bypassed here, so it is predicted to show no change.
extension-search
    Acceptance criteria 7, 8 and 10 and the rank-4 targets of the
    Baseline under fixed node budgets (never ``max_seconds``, so verdicts
    are deterministic).  Search nodes drive many small ``canonical_form``
    and ``verify_binomial`` calls on partial posets; the capped cases show
    whether a change reaches more of the space within the same budget.

Every workload also touches each library layer at least once through a
check that holds independently of the workload's main answer, so every
per-layer span exists on every workload.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("interval-census", "poset-pipeline", "extension-search")


class WrongAnswer(Exception):
    """A task's answer differs from its reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], dict]  # returns notes; {"capped": True} marks a cap


@dataclass
class Context:
    """What a workload's tasks share: the library, the seeded generator,
    a scratch directory for CLI files, and the pass's I/O byte count."""

    lib: object  # the binposet package, for types and untraced helpers
    api: object  # public functions, traced or not (see tracing.make_api)
    rng: random.Random
    workdir: str
    full: bool
    io_bytes: int = 0

    def cli(self, *argv: str) -> tuple[int, list[list[str]], str]:
        """Run ``binposet <argv>`` in-process; returns the exit code, the
        stdout rows split at tabs, and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.api.main(list(argv))
        text = out.getvalue()
        self.io_bytes += len(text.encode()) + sum(
            os.path.getsize(a) for a in argv if a.startswith(self.workdir) and os.path.exists(a)
        )
        return code, [line.split("\t") for line in text.splitlines()], err.getvalue()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# ---------------------------------------------------------------------------
# seeded inputs and independent references


def value(rows: list[list[str]], key: str) -> str | None:
    """The value of the first CLI output row with this key."""
    return next((r[1] for r in rows if r[0] == key and len(r) > 1), None)


def random_word(rng: random.Random, length: int) -> str:
    """A uniformly drawn letter at each step, with a 1 forced after a 2."""
    out: list[str] = []
    for _ in range(length):
        out.append("1" if out and out[-1] == "2" else rng.choice("12"))
    return "".join(out)


def distinct_factors(word: str, n: int) -> int:
    """Reference class count of length-n intervals of a word poset.

    A length-n interval with bottom at level b has the n - 4 interior
    sections b .. b+n-5 of the word (section j joins levels j+2 and j+3),
    and these determine it; 1 class for n <= 4.  Since b <= height - n =
    len(word) + 2 - n, the last two letters are never interior, so the
    count is that of distinct length-(n-4) factors of ``word[:-2]``."""
    k = n - 4
    if k <= 0:
        return 1
    body = word[:-2]
    return len({body[i : i + k] for i in range(len(body) - k + 1)})


def relabel(lib, p, rng: random.Random):
    """The same diagram with fresh ids and each level in a shuffled order,
    so its labelled encoding differs from the original's."""
    names = list(range(len(p.elements)))
    rng.shuffle(names)
    new = {x: f"v{names[i]}" for i, x in enumerate(p.elements)}
    levels = []
    for lv in p.levels:
        row = [new[x] for x in lv]
        rng.shuffle(row)
        levels.append(tuple(row))
    return lib.GradedPoset(tuple(levels), frozenset((new[a], new[b]) for a, b in p.covers))


def chain_law(atoms: tuple[int, ...], counts: dict[int, int]) -> bool:
    """Chain counts equal B(d) = a_1 ... a_d at every length."""
    b = 1
    for d in range(len(atoms) + 1):
        if d:
            b *= atoms[d - 1]
        if counts.get(d) != b:
            return False
    return True


def check_classes(ctx: Context, classes, atoms: tuple[int, ...]) -> None:
    """Search output: every class passes verify_binomial with the target
    atoms, and the classes have pairwise-distinct certificates."""
    certs = set()
    for q in classes:
        rep = ctx.api.verify_binomial(q)
        expect(rep.ok and rep.atoms.head == atoms, f"a class fails verify_binomial for {atoms}")
        certs.add(ctx.api.canonical_form(q))
    expect(len(certs) == len(classes), "two classes share a certificate")


def search_outcome(ctx: Context, res, atoms, want: str, classes: int | None = None) -> dict:
    """Check a search result: a cap is inconclusive and only its partial
    classes are checked; otherwise the verdict and class count must match."""
    check_classes(ctx, res.classes, tuple(atoms))
    notes = {"verdict": res.verdict, "nodes": res.nodes, "classes": len(res.classes)}
    if res.verdict == "capped":
        return {**notes, "capped": True}
    expect(res.verdict == want, f"verdict {res.verdict}, want {want}")
    if classes is not None:
        expect(len(res.classes) == classes, f"{len(res.classes)} classes, want {classes}")
    return notes


# ---------------------------------------------------------------------------
# interval-census


def interval_census(ctx: Context) -> list[Task]:
    lib, api = ctx.lib, ctx.api
    lengths = range(2, 8) if ctx.full else range(2, 6)
    words = {
        "versal": lib.versal_string(3 if ctx.full else 2),
        "seeded": random_word(ctx.rng, 24 if ctx.full else 8),
    }
    posets = {label: api.poset_from_string(w) for label, w in words.items()}
    certs: dict[tuple[str, int], list[bytes]] = {}
    tasks: list[Task] = []

    def inputs(label: str) -> dict:
        p, w = posets[label], words[label]
        expect(api.phi(p) == w, f"phi of the {label} poset is not its word")
        rep = api.atomic_numbers(p)
        want = (1, 1) + (2,) * (p.height - 2)
        expect(rep.ok and rep.atoms.head == want, "atom counts are not (1,1,2,...)")
        expect(api.check_compatibility(rep.atoms).ok, "measured atoms fail the growth condition")
        return {}

    def census(label: str) -> dict:
        counts, intervals = [], 0
        for n in lengths:
            cls = api.enumerate_interval_classes(posets[label], n)
            want = distinct_factors(words[label], n)
            expect(cls.count == want, f"{cls.count} classes of length {n}, want {want}")
            certs[label, n] = [c.certificate for c in cls.classes]
            counts.append(cls.count)
            intervals += sum(c.size for c in cls.classes)
        return {"classes": counts, "intervals": intervals}

    def by_search(atoms: tuple[int, ...]) -> dict:
        # the unique class with these atoms is the census's one class of
        # this length
        res = api.enumerate_intervals(atoms)
        notes = search_outcome(ctx, res, atoms, "found", classes=1)
        want = certs["versal", len(atoms)]
        expect([api.canonical_form(res.classes[0])] == want, "search class differs from census")
        return notes

    def by_cli() -> dict:
        path = ctx.path("seeded.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(api.poset_to_json(posets["seeded"]))
        code, rows, _ = ctx.cli("intervals", path, "--length", "5")
        expect(code == 0, f"intervals exit {code}")
        expect(value(rows, "classes") == str(distinct_factors(words["seeded"], 5)), "CLI class count")
        got = sorted(bytes.fromhex(r[1]) for r in rows if r[0] == "class")
        expect(got == sorted(certs["seeded", 5]), "CLI certificates differ from the library's")
        return {}

    # one task per poset: the census of all its lengths is one verdict
    for label in words:
        tasks.append(Task(f"input check {label}", lambda label=label: inputs(label)))
        tasks.append(Task(f"census {label}", lambda label=label: census(label)))
    tasks.append(Task("search (1,1,2)", lambda: by_search((1, 1, 2))))
    tasks.append(Task("search (1,1,2,2)", lambda: by_search((1, 1, 2, 2))))
    tasks.append(Task("cli intervals --length 5", by_cli))
    return tasks


# ---------------------------------------------------------------------------
# poset-pipeline

# README construction table: build arguments and the atom counts they realize
BUILDS = (
    ("m3", ("m-interval", "--m", "3"), (1, 3, 4)),
    ("debruijn", ("debruijn", "--m", "2", "--n", "3", "--height", "5"), (1, 1, 3, 3, 3)),
    ("strip", ("boolean-strip", "--n", "4", "--k", "2"), (1, 2, 3, 8)),
    ("divisible", ("divisible", "--seq", "1,2,4", "--height", "4"), (1, 2, 4, 4)),
)


def poset_pipeline(ctx: Context) -> list[Task]:
    lib, api, rng = ctx.lib, ctx.api, ctx.rng
    full = ctx.full
    level = 3 if full else 2
    versal = lib.versal_string(level)
    neighbour = versal
    while neighbour == versal:
        neighbour = random_word(rng, len(versal))
    word = neighbour[:6]
    big = api.poset_from_string("12" * (300 if full else 10))
    canon = {f"versal_string({level})": api.poset_from_string(versal)}
    shapes = (
        ("debruijn_poset", (3, 3, 7) if full else (2, 2, 5)),
        ("stripped_boolean_interval", (6, 2) if full else (4, 2)),
        ("divisible_poset", ((1, 2, 4), 6 if full else 4)),
    )
    for fn, args in shapes:
        canon[f"{fn}{args}"] = getattr(api, fn)(*args)
    copies = {name: relabel(lib, p, rng) for name, p in canon.items()}
    near = api.poset_from_string(neighbour)
    hard = api.divisible_poset((1, 2, 4, 8), 4)
    hard_copy = relabel(lib, hard, rng)
    hard_cap = 1000 if full else 100
    wants = {name: atoms for name, _, atoms in BUILDS}
    wants["word"] = (1, 1) + (2,) * len(word)
    tasks: list[Task] = []

    def build(name: str, args: tuple[str, ...]) -> dict:
        out = ctx.path(f"{name}.json")
        extra = ("--dot", ctx.path(f"{name}.dot")) if name == "m3" else ()
        code, _, err = ctx.cli("build", *args, "--out", out, *extra)
        expect(code == 0, f"build {name} exit {code}: {err.strip()}")
        with open(out, encoding="utf-8") as fh:
            back = api.poset_from_json(fh.read())
        expect(len(back.levels) == len(wants[name]) + 1, f"{name} read back with the wrong height")
        return {}

    def verify(name: str) -> dict:
        code, rows, _ = ctx.cli("verify", ctx.path(f"{name}.json"))
        expect(code == 0 and value(rows, "ok") == "true", f"verify {name} exit {code}")
        atoms = wants[name]
        expect(value(rows, "atoms") == ",".join(map(str, atoms)), f"verify {name} atoms")
        counts = {d: int(c) for d, c in enumerate(value(rows, "chains").split(","))}
        expect(chain_law(atoms, counts), f"verify {name} chain counts")
        return {}

    def classify() -> dict:
        code, rows, _ = ctx.cli("classify", ctx.path("word.json"))
        expect(code == 0 and value(rows, "phi") == word, "classify of the word poset")
        code, _, _ = ctx.cli("classify", ctx.path("m3.json"))
        expect(code == 1, f"classify of m3 exit {code}, want 1")
        return {}

    def intervals() -> dict:
        code, rows, _ = ctx.cli("intervals", ctx.path("word.json"), "--length", "5")
        expect(code == 0 and value(rows, "classes") == str(distinct_factors(word, 5)),
               "intervals --length 5 class count")
        return {}

    def check_seq() -> dict:
        code, rows, _ = ctx.cli("check-seq", "1,2,3,4,4,6...", "--horizon", "12")
        expect(code == 0 and value(rows, "ok") == "true", "check-seq 1,2,3,4,4,6...")
        code, rows, _ = ctx.cli("check-seq", "1,2,3,3")
        expect(code == 1 and value(rows, "witness") == "2,2", "check-seq 1,2,3,3")
        return {}

    def decide() -> dict:
        out = ctx.path("witness.json")
        code, rows, _ = ctx.cli("decide", "1,2,6", "--out", out)
        expect(code == 0 and value(rows, "recipe") == "stripped_boolean_interval(3, 2)",
               "decide 1,2,6")
        with open(out, encoding="utf-8") as fh:
            rep = api.verify_binomial(api.poset_from_json(fh.read()))
        expect(rep.ok and rep.atoms.head == (1, 2, 6), "decide witness atoms")
        code, rows, _ = ctx.cli("decide", "1,2,3,6")
        expect(code == 1 and value(rows, "verdict") == "non-realizable", "decide 1,2,3,6")
        return {}

    def search() -> dict:
        code, rows, _ = ctx.cli("search-extension", ctx.path("m3.json"), "--target", "1,3,4,6")
        expect(code == 1 and value(rows, "verdict") == "exhausted", f"search-extension exit {code}")
        return {"nodes": int(value(rows, "nodes"))}

    def export_dot() -> dict:
        out = ctx.path("m3-export.dot")
        code, _, _ = ctx.cli("export-dot", ctx.path("m3.json"), "--out", out)
        with open(out, encoding="utf-8") as a, open(ctx.path("m3.dot"), encoding="utf-8") as b:
            expect(code == 0 and a.read() == b.read(), "export-dot differs from build --dot")
        return {}

    def sweep() -> dict:
        rep = api.verify_binomial(big)
        atoms = (1, 1) + (2,) * (big.height - 2)
        expect(rep.ok and rep.atoms.head == atoms, "verify_binomial atoms of the big poset")
        expect(chain_law(atoms, rep.counts), "chain counts of the big poset")
        return {}

    def atoms() -> dict:
        rep = api.atomic_numbers(big)
        expect(rep.ok and rep.atoms.head == (1, 1) + (2,) * (big.height - 2), "atomic_numbers")
        return {}

    def same_certificate(name: str) -> dict:
        expect(api.canonical_form(canon[name]) == api.canonical_form(copies[name]),
               f"relabelled {name} has another certificate")
        return {}

    def neighbour_differs() -> dict:
        p = canon[f"versal_string({level})"]
        expect(p.widths == near.widths, "neighbour word poset has other widths")
        expect(not lib.are_isomorphic(p, near), "neighbour word poset is isomorphic")
        return {}

    def capped() -> dict:
        try:
            cert = api.canonical_form(hard, node_cap=hard_cap)
            expect(cert == api.canonical_form(hard_copy, node_cap=hard_cap),
                   "relabelled divisible_poset((1,2,4,8),4) has another certificate")
        except lib.CanonicalizationCapError:
            return {"capped": True}
        return {}

    for name, args, _ in BUILDS:
        tasks.append(Task(f"cli build {name}", lambda n=name, a=args: build(n, a)))
    tasks.append(Task("cli build word", lambda: build("word", ("string", "--word", word))))
    for name in wants:
        tasks.append(Task(f"cli verify {name}", lambda n=name: verify(n)))
    tasks += [
        Task("cli classify", classify),
        Task("cli intervals --length 5", intervals),
        Task("cli check-seq", check_seq),
        Task("cli decide", decide),
        Task("cli search-extension", search),
        Task("cli export-dot", export_dot),
        Task("verify_binomial big", sweep),
        Task("atomic_numbers big", atoms),
    ]
    # one task per pair: the seed-dependent cost of a relabelled copy's
    # search stays in its own task instead of adding up in one
    for name in canon:
        tasks.append(Task(f"canonical_form relabelled {name}", lambda n=name: same_certificate(n)))
    tasks.append(Task("neighbour word differs", neighbour_differs))
    tasks.append(Task(f"canonical_form node_cap={hard_cap}", capped))
    return tasks


# ---------------------------------------------------------------------------
# extension-search


def extension_search(ctx: Context) -> list[Task]:
    lib, api, rng = ctx.lib, ctx.api, ctx.rng
    full = ctx.full
    limits = lib.SearchLimits
    strip = relabel(lib, api.stripped_boolean_interval(4, 1), rng)
    m3 = relabel(lib, api.m_interval(3), rng)
    cube = api.stripped_boolean_interval(3, 1)
    tasks: list[Task] = []

    def criterion_7() -> dict:
        res = api.extension_search(strip, (1, 2, 3, 4, 4))
        return search_outcome(ctx, res, (1, 2, 3, 4, 4), "exhausted", classes=0)

    def admissible() -> dict:
        got = [a for a in range(4, 13) if api.check_compatibility((1, 3, 4, a)).ok]
        expect(got == [a for a in range(4, 13) if a % 3 == 0], f"admissible a_4 {got}")
        return {}

    def criterion_8_cli() -> dict:
        path = ctx.path("m3.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(api.poset_to_json(m3))
        code, rows, _ = ctx.cli("search-extension", path, "--target", "1,3,4,6")
        expect(code == 1 and value(rows, "verdict") == "exhausted", f"search-extension exit {code}")
        expect(value(rows, "classes") == "0", "search-extension classes")
        return {"verdict": "exhausted", "nodes": int(value(rows, "nodes"))}

    def criterion_8(a: int) -> dict:
        res = api.extension_search(m3, (1, 3, 4, a))
        return search_outcome(ctx, res, (1, 3, 4, a), "exhausted", classes=0)

    def criterion_10() -> dict:
        res = api.enumerate_intervals((1, 3, 4))
        notes = search_outcome(ctx, res, (1, 3, 4), "found", classes=1)
        expect(api.canonical_form(res.classes[0]) == api.canonical_form(m3),
               "the (1,3,4) class is not m_interval(3)")
        return notes

    def rank_4(atoms, strategy: str, want: str, nodes: int | None = None, base=None,
               classes: int | None = None) -> dict:
        lim = limits() if nodes is None else limits(max_nodes=nodes)
        res = api.enumerate_intervals(atoms, base=base, strategy=strategy, limits=lim)
        return search_outcome(ctx, res, atoms, want, classes)

    def counting_up() -> dict:
        # a rank-4 poset over (1,2,3): two atom classes of size 4, and every
        # length-3 interval is the Boolean lattice B_3
        res = api.enumerate_intervals((1, 2, 3, 8), strategy="assembly")
        notes = search_outcome(ctx, res, (1, 2, 3, 8), "found", classes=1)
        r = api.check_R_equivalence(res.classes[0])
        expect(r.ok and r.k == 2, "R-classes of the (1,2,3,8) class")
        cls = api.enumerate_interval_classes(res.classes[0], 3)
        expect([c.certificate for c in cls.classes] == [api.canonical_form(cube)],
               "length-3 intervals are not B_3")
        return notes

    def levelwise_1349() -> dict:
        # the assembly run is exhaustive, so a capped levelwise run may
        # hold no partial class either
        notes = rank_4((1, 3, 4, 9), "levelwise", "exhausted", nodes=2000, base=m3, classes=0)
        expect(notes["classes"] == 0, "levelwise found a class that assembly ruled out")
        return notes

    tasks.append(Task("criterion 7", criterion_7))
    tasks.append(Task("criterion 8 admissible a_4", admissible))
    tasks.append(Task("criterion 8 a=6 (cli)", criterion_8_cli))
    for a in (9, 12) if full else (9,):
        tasks.append(Task(f"criterion 8 a={a}", lambda a=a: criterion_8(a)))
    tasks.append(Task("criterion 10", criterion_10))
    tasks.append(Task("(1,3,4,9) assembly", lambda: rank_4((1, 3, 4, 9), "assembly", "exhausted",
                                                          base=m3, classes=0)))
    tasks.append(Task("(1,3,4,9) levelwise", levelwise_1349))
    tasks.append(Task("(1,2,3,8) assembly", counting_up))
    tasks.append(Task("(1,2,4,8) assembly", lambda: rank_4((1, 2, 4, 8), "assembly", "found",
                                                          nodes=300)))
    tasks.append(Task("(1,2,4,8) levelwise", lambda: rank_4((1, 2, 4, 8), "levelwise", "found",
                                                           nodes=300 if full else 100)))
    return tasks


SETUP = {
    "interval-census": interval_census,
    "poset-pipeline": poset_pipeline,
    "extension-search": extension_search,
}
