"""Atom-count sequences: admissibility, extension, and realizability.

A sequence (a_1, a_2, ...) can be the atom-count sequence of a binomial
poset only if it is non-decreasing with a_1 = 1 and every generalized
binomial coefficient B(i+j) / (B(i) B(j)) is an integer.  This module
checks that condition exactly, extends finite heads by their lcm, decides
realizability for the recognized families, and verifies the atom
equivalence relation that pins down interval structure over counting-up
sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .construct import (
    debruijn_poset,
    divisible_poset,
    m_interval,
    stripped_boolean_interval,
)
from .core import (
    AtomicSequence,
    GradedPoset,
    PosetError,
    atomic_numbers,
    _as_sequence,
    _ratio_failure,
    _whole,
)

__all__ = [
    "CompatibilityReport",
    "check_compatibility",
    "lcm_extension",
    "FamilyDecision",
    "decide_family",
    "RClassReport",
    "check_R_equivalence",
]


@dataclass(frozen=True)
class CompatibilityReport:
    """Outcome of the growth-condition check.

    ``kind`` is "monotone" or "ratio"; ``witness`` is the offending index
    pair and ``value`` the non-integral coefficient for a ratio failure."""

    ok: bool
    kind: str | None = None
    witness: tuple[int, int] | None = None
    value: Fraction | None = None
    detail: str = ""


def check_compatibility(seq, horizon: int | None = None) -> CompatibilityReport:
    """Check a_1 = 1 <= a_2 <= ... and integrality of B(i+j)/(B(i)B(j)).

    The pairs are taken with i <= j, by i + j and then by i.  With a
    horizon, those with i + j <= horizon are checked.  Without one, a
    finite sequence is checked up to its length.  An eventually constant
    sequence, with k explicit values and constant tail L, is checked
    completely by the pairs with i + j <= 2k + 2, so a longer horizon
    checks only those.  For j >= k the factors a_{j+1}, ..., a_{j+i} of
    B(i+j)/B(j) all equal L, so the ratio is L^i / B(i), which is also
    the ratio of (min(i, k+1), k+1).  For j > k + 1 that pair comes
    earlier, so every pair past the bound repeats an earlier one and the
    first failure is the same as over all pairs."""
    seq = _as_sequence(seq)
    k = len(seq.head)
    top = k if seq.finite else 2 * k + 2
    if horizon is not None:
        horizon = _whole(horizon, "horizon")
        if seq.finite and horizon > k:
            raise PosetError(f"sequence defines {k} values, horizon is {horizon}")
        top = min(horizon, top)
    for i in range(1, top):
        lo, hi = seq.a(i), seq.a(i + 1)
        if hi < lo:
            return CompatibilityReport(
                ok=False,
                kind="monotone",
                witness=(i, i + 1),
                detail=f"a_{i + 1} = {hi} is below a_{i} = {lo}",
            )
    bad = _ratio_failure(seq, top)
    if bad is not None:
        i, j, value = bad
        return CompatibilityReport(
            ok=False,
            kind="ratio",
            witness=(i, j),
            value=value,
            detail=f"B({i + j}) / (B({i}) B({j})) = {value} is not an integer",
        )
    return CompatibilityReport(ok=True)


def lcm_extension(head) -> AtomicSequence:
    """Extend a finite admissible head by the constant tail lcm(head).

    The extension is admissible, so it is not checked again.  Let the
    head a_1..a_k be admissible with lcm L; every a_m of the extension
    divides L, so it is monotone, and B(i) divides L^i.  Take i <= j.  If
    i + j <= k, B(i+j) / (B(i) B(j)) is a ratio of the head.  If j >= k it
    is L^i / B(i).  Otherwise i <= j < k < i + j, and B(i+j) = B(k) L^(i+j-k)
    while B(j) = B(k-i) a_(k-i+1)...a_j, so the ratio is
    B(k) / (B(i) B(k-i)), a ratio of the head, times L^(i+j-k) over
    i + j - k factors that each divide L."""
    seq = _as_sequence(head)
    if not seq.finite:
        raise PosetError("sequence already has a constant tail")
    if not seq.head:
        raise PosetError("need at least one value to extend")
    rep = check_compatibility(seq)
    if not rep.ok:
        raise PosetError(f"head is not admissible: {rep.detail}")
    return AtomicSequence(seq.head, lcm(*seq.head))


# ---------------------------------------------------------------------------
# realizability of recognized families


@dataclass(frozen=True)
class FamilyDecision:
    """verdict is "realizable", "non-realizable", or "unknown".  For a
    realizable family, ``recipe`` names the constructor call and
    ``witness`` is the constructed poset."""

    verdict: str
    reason: str
    recipe: str | None = None
    witness: GradedPoset | None = None


def decide_family(seq, witness_height: int | None = None) -> FamilyDecision:
    """Decide realizability when the sequence lies in a recognized family.

    Witnesses for unbounded families are truncated at ``witness_height``
    (default: the head length, plus two when a tail is present)."""
    seq = _as_sequence(seq)
    if witness_height is not None:
        witness_height = _whole(witness_height, "witness_height")
    if not seq.head and seq.tail is not None:
        seq = AtomicSequence((seq.tail,), seq.tail)
    comp = check_compatibility(seq)
    if not comp.ok:
        return FamilyDecision(
            "non-realizable", f"the growth condition fails: {comp.detail}"
        )
    vals = seq.head
    k = len(vals)
    if not vals:
        return FamilyDecision("unknown", "no values to decide on")
    height = witness_height
    if height is None:
        height = k if seq.finite else k + 2

    # counting-up prefix (1, 2, ..., n-1) with n not dividing a_n; a
    # constant tail can supply at most one further counting-up value
    limit = k if seq.finite else k + 2
    for n in range(4, limit + 1):
        if seq.prefix(n - 1) == tuple(range(1, n)) and seq.a(n) % n:
            return FamilyDecision(
                "non-realizable",
                f"a length-{n} interval over the counting-up prefix "
                f"(1, ..., {n - 1}) forces {n} | a_{n}, but a_{n} = {seq.a(n)}",
            )

    # (1, m, m+1) with m >= 3 admits no fourth rank at all
    if k >= 3 and vals[1] >= 3 and vals[2] == vals[1] + 1 and (k > 3 or not seq.finite):
        return FamilyDecision(
            "non-realizable",
            f"no length-4 interval extends the (1, {vals[1]}, {vals[1] + 1}) "
            "interval, so longer sequences over it are out",
        )

    if seq.finite and k == 3 and vals[2] == vals[1] + 1:
        m = vals[1]
        return FamilyDecision(
            "realizable",
            f"the two-level complete-minus-matching interval realizes (1, {m}, {m + 1})",
            recipe=f"m_interval({m})",
            witness=m_interval(m),
        )

    if seq.finite and k >= 2 and vals[: k - 1] == tuple(range(1, k)) and vals[-1] % k == 0:
        copies = vals[-1] // k
        return FamilyDecision(
            "realizable",
            f"{copies} glued stripped subset lattices realize (1, ..., {k - 1}, {vals[-1]})",
            recipe=f"stripped_boolean_interval({k}, {copies})",
            witness=stripped_boolean_interval(k, copies),
        )

    ones = 0
    while ones < k and vals[ones] == 1:
        ones += 1
    rest = set(vals[ones:]) | ({seq.tail} if not seq.finite else set())
    if len(rest) <= 1:  # a_1 = 1, so ones >= 1
        n = rest.pop() if rest else 1
        m = ones
        return FamilyDecision(
            "realizable",
            f"the window-{m} shift register over {n} letters realizes (1^{m}, {n}, ...)",
            recipe=f"debruijn_poset({m}, {n}, {height})",
            witness=debruijn_poset(m, n, height),
        )

    divides = all(vals[i + 1] % vals[i] == 0 for i in range(k - 1))
    if divides and (seq.finite or seq.tail % vals[-1] == 0):
        spec = seq.format()
        return FamilyDecision(
            "realizable",
            f"successive quotients are integers, so the mixed-modulus "
            f"shift register realizes ({spec})",
            recipe=f"divisible_poset(({spec}), {height})",
            witness=divisible_poset(seq, height),
        )

    return FamilyDecision("unknown", "no recognized family matches")


# ---------------------------------------------------------------------------
# atom equivalence inside an interval


@dataclass(frozen=True)
class RClassReport:
    """Atom classes under the relation: x ~ x' iff some rank-2 element
    sits above both.  ``ok`` means the relation is an equivalence whose
    classes all have size height(interval)."""

    ok: bool
    k: int
    classes: tuple[tuple[str, ...], ...]
    detail: str = ""


def check_R_equivalence(p: GradedPoset) -> RClassReport:
    """Group the atoms of an interval by shared rank-2 upper bounds.

    Precondition: the interval's measured atom counts follow the
    counting-up pattern (1, 2, ..., n-1, a_n).  When the relation is an
    equivalence with classes of size n, their number k satisfies
    a_n = k n."""
    if p.widths[0] != 1 or p.widths[-1] != 1:
        raise PosetError("need a bounded interval")
    n = p.height
    if n < 2:
        raise PosetError("need height at least 2")
    measured = atomic_numbers(p)
    if not measured.ok or measured.atoms is None:
        raise PosetError(f"atom counts are not homogeneous: {measured.detail}")
    head = measured.atoms.head
    if head[: n - 1] != tuple(range(1, n)):
        raise PosetError(
            f"atom counts {measured.atoms.format()} do not start (1, ..., {n - 1})"
        )
    atoms = p.levels[1]
    related: dict[str, set[str]] = {x: {x} for x in atoms}
    for y in p.levels[2]:
        lows = p.lower_covers(y)
        for a in lows:
            related[a].update(lows)
    classes: list[tuple[str, ...]] = []
    assigned: dict[str, int] = {}
    for x in atoms:
        if x in assigned:
            continue
        comp = {x}
        frontier = [x]
        while frontier:
            v = frontier.pop()
            for w in related[v]:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        for v in comp:
            assigned[v] = len(classes)
        classes.append(tuple(sorted(comp)))
    ordered = tuple(sorted(classes))
    for cls in ordered:
        for v in cls:
            missing = [w for w in cls if w not in related[v]]
            if missing:
                return RClassReport(
                    ok=False,
                    k=len(ordered),
                    classes=ordered,
                    detail=(
                        f"not transitive: {v} and {missing[0]} are connected "
                        "but share no rank-2 upper bound"
                    ),
                )
    bad = [cls for cls in ordered if len(cls) != n]
    if bad:
        return RClassReport(
            ok=False,
            k=len(ordered),
            classes=ordered,
            detail=f"class {bad[0]} has size {len(bad[0])}, want {n}",
        )
    return RClassReport(ok=True, k=len(ordered), classes=ordered)
