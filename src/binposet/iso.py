"""Rank-respecting isomorphism tests and canonical certificates.

The certificate is the lexicographically least adjacency encoding over
the leaves of a search tree of ordered partitions, so equal certificates
mean isomorphic diagrams and conversely.  Certificate bytes (and the CLI
``intervals`` hex that shows them) are stable only within a version of
this package: compare them, never store them across an upgrade.

The search follows McKay and Piperno ("Practical graph isomorphism, II",
2014) and Junttila and Kaski (bliss, 2007), kept to what graded diagrams
need:

* Refinement.  The partition is a list ``lab`` of element indices,
  level by level, cut into contiguous cells; an element's color is the
  start position of its cell.  A queue of splitter cells drives the
  refinement to the coarsest equitable partition: each splitter counts
  its neighbours, and every cell it touches is split by that count, in
  count order.  A splitter of one element counts 0 or 1 for each element,
  so it builds no count table: a cell it touches splits into its
  non-neighbours, in cell order, then its neighbours, in adjacency order,
  which is the split the count would give.  Cells never mix levels and
  covers join adjacent levels only, so one combined up-and-down
  neighbour list serves both directions.  The fragments of a split cell are queued except its
  largest, unless the cell itself was still queued; individualizing an
  element queues only its singleton cell.

* Search.  A node individualizes each member of its first smallest cell
  that holds more than one twin class (see Twins) in turn; a node
  without such a cell is a leaf, and ``lab`` is its element order.  It
  looks for that cell only inside its parent's non-singleton cells, as a
  singleton cell is never split.  The walk is depth first, from an
  explicit stack of the branching nodes on the current path, so a path
  of any depth needs no recursion.
  Automorphisms come only from twin swaps (see Twins) and the check
  below, and are stored sparsely (moved points only).  A node keeps the
  automorphisms that fix its path pointwise; those map its target cell
  onto itself, so a member already in the closure of the explored
  members under them roots a subtree equivalent to one explored, and is
  skipped.  The search keeps the partition of every node on the best
  path (the path to the best leaf), and the length k of the prefix the
  current path shares with it, updated as the walk descends and returns.
  A child at depth d + 1 off the best path (k <= d) is refined, then
  checked against the best path's node of that depth, cheapest test
  first: equal cell counts, equal cell boundaries, and whether the map
  from that node's ``lab`` onto the child's, position by position, keeps
  every cover (the cheap automorphisms of saucy: Darga, Sakallah and
  Markov, DAC 2008).  If it does, the map is an automorphism (cells keep
  to one level, so it keeps ranks).  Refinement never moves a singleton
  cell, so the map fixes the shared prefix of the two paths and sends
  the best path's member at depth k to the current path's.  So it
  carries the subtree of the best path's child at depth k, which the
  search has finished, onto the subtree of the current path's child
  there, which holds no lesser leaf.  The map is recorded and the search
  resumes at depth k; when k = d the child's subtree alone is skipped.
  The first two tests only rule maps out early; the covers decide.  Each
  refined partition is one node, a skipped child's included.  A leaf
  encoding like the best adds nothing: one at the best leaf's depth with
  its cells is caught here unencoded, and any other costs only nodes, as
  pruning never decides a certificate.

* Twins.  Elements of one level with the same upper and the same lower
  covers are twins.  Swapping two twins is an automorphism known before
  the search starts, so each swap of consecutive members of a twin class
  is a generator from the root on, and the search explores one twin per
  class of a target cell.  A cell whose members are all twins is never a
  target: no refinement splits it, and individualizing one of its members
  splits nothing else, so the discrete partitions below a node with only
  singleton and twin-only cells differ only in the order inside those
  cells, and all encode like the node's ``lab``.  The certificate is thus
  the least encoding over the discrete partitions of the tree that
  branches on every non-singleton cell.

* Known leaves.  A caller that certifies many diagrams (the interval
  census, and the dedup, classification and anchor checks of the
  searches) keeps a dict from leaf encodings to certificates and hands
  it to each search.  A complete run adds every leaf it encoded, mapped
  to its certificate; a leaf whose encoding is in the dict ends the
  search, which returns the mapped certificate.  That is exact even for
  an incomplete dict: equal encodings are the same labelled diagram, so
  the poset is isomorphic to the one whose run met that leaf, and
  isomorphic posets have equal certificates.  It is also fast: once a
  complete run of one poset has filled the dict, the first leaf of any
  isomorphic copy is in it.  Refinement and the choice of target cell
  depend only on positions (cell sizes, in order, and twins), so an
  isomorphism carries the tree of the unpruned search on one copy onto
  that of the other, and equal leaves of the two encode alike.  A
  complete run meets every encoding of its unpruned tree: pruning skips
  only automorphic images of what it explored, which encode alike, and
  twin-only cells encode alike in any order (see Twins).  So a search
  of a class already met stops at its first leaf and skips the
  backtracking that proves a leaf least.

* Cache.  ``_certify``, the one search entry, takes a diagram as its
  level widths and ascending lower-cover lists, and lists the upper
  covers itself, so the census and the searches build no poset to
  certify; only it takes known leaves and a deadline.  A poset keeps its
  last complete run (certificate, element order, node count) in its own
  ``__dict__``, as its constructor keeps its cover lists, so
  asking the same object twice searches once; a search stores each
  class with the run that certified it.  Nothing is kept elsewhere.  A
  kept run whose node count exceeds the caller's cap raises as a fresh
  run would.  A capped run is not kept, nor is one stopped at a known
  leaf, whose order need not be canonical.

A node cap guards against pathological inputs and is reported, never
silently hit.  A caller's deadline, read every 64 nodes, ends a search
with ``_Capped``, the signal by which a search's own budgets stop it.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import accumulate
from typing import Sequence

from .core import GradedPoset, PosetError, _whole

__all__ = [
    "CanonicalizationCapError",
    "canonical_form",
    "are_isomorphic",
    "isomorphism",
    "DEFAULT_NODE_CAP",
]

DEFAULT_NODE_CAP = 200_000


class CanonicalizationCapError(PosetError):
    """The canonical-labeling backtracking exceeded its node budget."""


class _Capped(Exception):
    """A search's node or time budget ran out; ``detail`` says which."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


def _close(reached: set[int], gens: list[dict[int, int]], start: list[int]) -> None:
    """Grow ``reached`` to its closure under ``gens``, from ``start``."""
    while start:
        x = start.pop()
        for g in gens:
            y = g.get(x)
            if y is not None and y not in reached:
                reached.add(y)
                start.append(y)


def _preserves_covers(adj: list[list[int]], near: list[set[int]], g: dict[int, int]) -> bool:
    """Whether the rank-keeping bijection ``g`` (moved points only) maps
    covers onto covers; ``adj`` lists each element's upper and lower
    covers, and ``near`` holds each such list as a set.

    Every cover with a moved endpoint v is checked from v, whichever end
    of it v is, and a cover between two fixed points maps to itself.  So g
    maps covers into covers, and as a bijection of a finite set it maps
    them onto covers.  Checking only the covers among the moved points
    would not do: a cover from a moved point to a fixed one could break.
    The images of v's covers are distinct, so they are all of g(v)'s when
    they number as many and all lie among them."""
    get = g.get
    for v, gv in g.items():
        nbrs = adj[v]
        if not (len(nbrs) == len(near[gv]) and near[gv].issuperset(map(get, nbrs, nbrs))):
            return False
    return True


class _Canonicalizer:
    def __init__(
        self,
        widths: Sequence[int],
        down: Sequence[Sequence[int]],
        node_cap: int,
        known: dict[bytes, bytes] | None = None,
        deadline: float | None = None,
    ):
        self.widths = widths
        self.starts = list(accumulate(widths, initial=0))
        self.level_of = level_of = [r for r, w in enumerate(widths) for _ in range(w)]
        self.cap = node_cap
        self.known = {} if known is None else known
        self.deadline = deadline
        # set when a known leaf ends the search
        self.stopped = False
        # the encodings of the leaves met
        self.leaves: set[bytes] = set()
        self.nodes = 0
        self.n = n = len(down)
        # the upper covers, each list ascending as it is filled in element order
        self.up = up = [[] for _ in range(n)]
        for v, cs in enumerate(down):
            for c in cs:
                up[c].append(v)
        self.adj = adj = [(*u, *d) for u, d in zip(up, down)]
        self.near = [set(nbrs) for nbrs in adj]
        self.best: bytes | None = None
        self.best_order: list[int] = []
        # (lab, end, ncells) of each node on the best path, the leaf included
        self.best_parts: list[tuple[list[int], list[int], int]] = []
        # the length of the common prefix of the current and the best path
        self.agree = 0
        self.gens: list[dict[int, int]] = []
        self.path: list[int] = []
        # Twins share a level and an ``adj`` entry (upper covers, then lower
        # ones).  A twin class is named by its first member, and the swap of
        # two consecutive members is an automorphism known before the search
        # starts.
        names: dict[tuple, int] = {}
        self.twin = [names.setdefault(key, v) for v, key in enumerate(zip(level_of, adj))]
        last: dict[int, int] = {}
        for v, t in enumerate(self.twin):
            if t in last:
                self.gens.append({last[t]: v, v: last[t]})
            last[t] = v

    def run(self) -> tuple[bytes, list[int]]:
        # the seed partition: one cell per level, in element order
        n, bounds = self.n, self.starts
        levels = list(zip(bounds, bounds[1:]))
        lab, cell, end = list(range(n)), [0] * n, [0] * n
        for s, e in levels:
            end[s] = e
            cell[s:e] = [s] * (e - s)
        ncells = self._refine(lab, cell, end, len(levels), [s for s, _ in levels])
        self._walk(lab, cell, end, ncells, levels)
        assert self.best is not None
        return self.best, self.best_order

    def keep(self, p: GradedPoset) -> None:
        """Keep this run on ``p``, the diagram searched (see Cache)."""
        if not self.stopped:
            p.__dict__["_canonical_run"] = (self.best, tuple(self.best_order), self.nodes)

    def _encode(self, order: Sequence[int]) -> bytes:
        """Adjacency encoding of the diagram under the given element order.

        ``order`` lists element indices level by level; the encoding is the
        width header and one packed cover bit-matrix per level pair.  Levels
        and degrees need no row of their own: the header and the matrices
        already determine them."""
        widths, level, offsets, up = self.widths, self.level_of, self.starts, self.up
        pos = [0] * len(order)
        for i, el in enumerate(order):
            pos[el] = i - offsets[level[el]]
        parts = [",".join(str(w) for w in widths).encode()]
        for r in range(len(widths) - 1):
            w_lo, top = widths[r], widths[r + 1] - 1
            bits = 0
            for el in order[offsets[r] : offsets[r + 1]]:
                row = 0
                for nb in up[el]:
                    row |= 1 << (top - pos[nb])
                bits = (bits << (top + 1)) | row
            parts.append(bits.to_bytes((w_lo * (top + 1) + 7) // 8, "big"))
        return b"|".join(parts)

    def _refine(
        self, lab: list[int], cell: list[int], end: list[int], ncells: int, queue: list[int]
    ) -> int:
        """Refine in place to the coarsest equitable partition; the cell count.

        Each refined partition is one node of the search, counted here
        against the cap."""
        self.nodes += 1
        if self.nodes > self.cap:
            raise CanonicalizationCapError(f"canonical labeling exceeded {self.cap} nodes")
        if self.deadline is not None and not self.nodes % 64:
            if time.monotonic() > self.deadline:
                raise _Capped("time budget exhausted")
        adj, n = self.adj, self.n
        pending = deque(queue)
        queued = set(queue)
        while pending and ncells < n:
            s = pending.popleft()
            queued.discard(s)
            if end[s] - s == 1:
                ncells = self._split_by(adj[lab[s]], lab, cell, end, ncells, pending, queued)
                continue
            counts: dict[int, int] = {}
            for v in lab[s : end[s]]:
                for w in adj[v]:
                    counts[w] = counts.get(w, 0) + 1
            touched: dict[int, list[int]] = {}
            for w in counts:
                x = cell[w]
                if end[x] - x > 1:
                    touched.setdefault(x, []).append(w)
            for x in sorted(touched):
                members = touched[x]
                ex = end[x]
                groups: dict[int, list[int]] = {}
                for w in members:
                    groups.setdefault(counts[w], []).append(w)
                if len(members) < ex - x:
                    groups[0] = [v for v in lab[x:ex] if v not in counts]
                if len(groups) == 1:
                    continue
                frags = []
                at = x
                for c in sorted(groups):
                    frag = groups[c]
                    lab[at : at + len(frag)] = frag
                    for v in frag:
                        cell[v] = at
                    end[at] = at + len(frag)
                    frags.append(at)
                    at += len(frag)
                ncells += len(frags) - 1
                if x in queued:
                    new = frags[1:]
                else:
                    sizes = [end[f] - f for f in frags]
                    skip = sizes.index(max(sizes))
                    new = frags[:skip] + frags[skip + 1 :]
                pending.extend(new)
                queued.update(new)
        return ncells

    def _split_by(
        self,
        nbrs: Sequence[int],
        lab: list[int],
        cell: list[int],
        end: list[int],
        ncells: int,
        pending: deque[int],
        queued: set[int],
    ) -> int:
        """Refine by a one-element splitter with neighbours ``nbrs``; the
        cell count.  Every count is 0 or 1, so a touched cell splits into
        its non-neighbours, in cell order, then its neighbours, in ``nbrs``
        order, as the count table of ``_refine`` would split it."""
        touched: dict[int, list[int]] = {}
        for w in nbrs:
            x = cell[w]
            if end[x] - x > 1:
                touched.setdefault(x, []).append(w)
        for x in sorted(touched):
            hit, ex = touched[x], end[x]
            if len(hit) == ex - x:
                continue
            near = set(hit)
            rest = [v for v in lab[x:ex] if v not in near]
            mid = x + len(rest)
            lab[x:ex] = rest + hit
            for v in hit:
                cell[v] = mid
            end[x], end[mid] = mid, ex
            ncells += 1
            # queue the smaller part, the neighbours on a tie; if the cell
            # is still queued, it stands for the non-neighbours
            new = mid if x in queued or len(rest) >= len(hit) else x
            pending.append(new)
            queued.add(new)
        return ncells

    def _walk(
        self,
        lab: list[int],
        cell: list[int],
        end: list[int],
        ncells: int,
        spans: list[tuple[int, int]],
    ) -> None:
        """Search the tree below the root, whose partition is already
        refined, depth first from an explicit stack of the branching nodes
        on the current path.  ``path[d]`` is the member that the node at
        depth d individualized for the child being searched.

        Each turn of the outer loop opens a fresh node, a leaf or a branching
        node, and gets the depth to resume at.  The inner loop comes back to
        the node of that depth, marks its child as explored, and refines its
        next member's child; the child is opened unless it is skipped as the
        image of a best-path node, which gives a new depth to resume at."""
        path, gens = self.path, self.gens
        # A frame per branching node: its refined partition, its
        # non-singleton cells as (start, stop) ranges, its target cell
        # [target, stop), an iterator over the target's members, the closure
        # of the members explored under the automorphisms that fix its path,
        # those automorphisms, and the number of generators they include.
        stack: list[list] = []
        fixing = list(gens)
        twin = self.twin
        while True:
            # The target is the first smallest cell holding two twin
            # classes; a twin-only cell never is, as every order of its
            # members encodes alike (see Twins in the module docstring).
            # Singletons are never split, so only the parent's non-singleton
            # cells (``spans``) are scanned.
            wide = []
            target, size = -1, self.n + 1
            for s, span_end in spans:
                while s < span_end:
                    e = end[s]
                    if e - s > 1:
                        wide.append((s, e))
                        if e - s < size and any(twin[v] != twin[lab[s]] for v in lab[s + 1 : e]):
                            target, size = s, e - s
                    s = e
            if target < 0:
                depth = self._leaf(lab, end, ncells, stack)
            else:
                stop = target + size
                members = iter(lab[target:stop])
                stack.append(
                    [lab, cell, end, ncells, wide, target, stop, members, set(), fixing, len(gens)]
                )
                depth = len(path)
            while True:
                del stack[depth + 1 :]
                if not stack:
                    return
                frame = stack[depth]
                lab, cell, end, ncells, wide, target, stop, members, reached, fixing, seen = frame
                if depth < len(path):
                    del path[depth + 1 :]
                    m = path.pop()
                    reached.add(m)
                    # each generator recorded since the node began fixes its
                    # path: it sent the search back to a prefix that it fixes
                    if seen < len(gens):
                        frame[9] = fixing = fixing + gens[seen:]
                        frame[10] = len(gens)
                        _close(reached, fixing, list(reached))
                    else:
                        _close(reached, fixing, [m])
                    if self.agree > depth:
                        self.agree = depth
                for m in members:
                    if m not in reached:
                        break
                else:
                    depth -= 1
                    continue
                path.append(m)
                # individualize m: first in the target cell, the rest after it
                lab = list(lab)
                i = lab.index(m, target, stop)
                lab[i], lab[target] = lab[target], m
                cell = list(cell)
                rest = target + 1
                for v in lab[rest:stop]:
                    cell[v] = rest
                cell[m] = target
                end = list(end)
                end[target], end[rest] = rest, stop
                ncells = self._refine(lab, cell, end, ncells + 1, [target])
                aut = None
                if len(path) < len(self.best_parts):
                    aut = self._image_of_best(lab, end, ncells)
                if aut is None:
                    fixing = [g for g in fixing if m not in g]
                    spans = wide
                    break
                gens.append(aut)
                depth = self.agree

    def _image_of_best(self, lab: list[int], end: list[int], ncells: int) -> dict[int, int] | None:
        """The automorphism that carries the best path's node of this depth
        onto this refined child, or None.  The map takes the best node's
        ``lab`` onto this one's, position by position.  Equal cell counts,
        then equal cell boundaries (``end`` lists, which are 0 off the cell
        starts), rule most failures out before the covers are checked (see
        Search in the module docstring)."""
        best_lab, best_end, best_ncells = self.best_parts[len(self.path)]
        if ncells != best_ncells or end != best_end:
            return None
        aut = {a: b for a, b in zip(best_lab, lab) if a != b}
        return aut if _preserves_covers(self.adj, self.near, aut) else None

    def _leaf(self, order: list[int], end: list[int], ncells: int, stack: list[list]) -> int:
        """Compare a leaf with the best; the depth to resume at.

        A new best keeps the partitions of its path.  A leaf yields no
        automorphism; they come only from twin swaps and the per-depth
        check (see Search in the module docstring).  A known leaf gives the
        certificate (see Known leaves): the search ends there."""
        enc = self._encode(order)
        depth = len(self.path)
        cert = self.known.get(enc)
        if cert is not None:
            self.best, self.best_order, self.stopped = cert, order, True
            return -1
        self.leaves.add(enc)
        if self.best is None or enc < self.best:
            self.best, self.best_order, self.agree = enc, order, depth
            self.best_parts = [(f[0], f[2], f[3]) for f in stack] + [(order, end, ncells)]
        return depth - 1


def _certify(
    widths: Sequence[int],
    down: Sequence[Sequence[int]],
    node_cap: int,
    known: dict[bytes, bytes] | None = None,
    deadline: float | None = None,
) -> tuple[bytes, list[int], _Canonicalizer]:
    """Certificate, element order and search of the diagram with level
    ``widths`` whose i-th element, counted level by level, has the lower
    covers ``down[i]``.  It stops at a leaf in ``known``, or adds its
    leaves if complete (see Known leaves); past ``deadline`` it raises
    ``_Capped``.

    Each list of ``down`` must be ascending; it is neither sorted nor
    de-duplicated here.  Every caller meets that: the poset constructor
    sorts its lists, ``core._induced_down`` of an ascending order keeps
    them ascending, levelwise cover sets come sorted from
    ``search._sets_from``, assembly rows map sorted patterns through
    sorted atom sets, its blocks and the top are ranges, and its coatoms
    take their positions in increasing order.  Twin detection and the
    order inside refined cells read the lists in order, so an unsorted
    list can cost nodes, never change the certificate, which is the least
    encoding over the whole tree (see Twins)."""
    search = _Canonicalizer(widths, down, node_cap, known, deadline)
    cert, order = search.run()
    if known is not None and not search.stopped:
        known.update(dict.fromkeys(search.leaves, cert))
    return cert, order, search


def _canonical(p: GradedPoset, node_cap: int) -> tuple[bytes, tuple[int, ...]]:
    """Certificate and canonical element order, from the run ``p`` keeps."""
    if "_canonical_run" not in p.__dict__:
        _certify(p.widths, p._down, node_cap)[2].keep(p)
    cert, order, nodes = p.__dict__["_canonical_run"]
    if nodes > node_cap:
        raise CanonicalizationCapError(f"canonical labeling exceeded {node_cap} nodes")
    return cert, order


def canonical_form(p: GradedPoset, node_cap: int = DEFAULT_NODE_CAP) -> bytes:
    """Canonical certificate: equal bytes iff rank-preserving isomorphic.

    Render with ``.hex()`` for display; the bytes are stable only within
    a version."""
    return _canonical(p, _whole(node_cap, "node_cap", 1))[0]


def are_isomorphic(p: GradedPoset, q: GradedPoset, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """Rank-preserving isomorphism test."""
    node_cap = _whole(node_cap, "node_cap", 1)
    if p.widths != q.widths or len(p.covers) != len(q.covers):
        return False
    return canonical_form(p, node_cap) == canonical_form(q, node_cap)


def isomorphism(
    p: GradedPoset, q: GradedPoset, node_cap: int = DEFAULT_NODE_CAP
) -> dict[str, str] | None:
    """A rank-preserving isomorphism as an id map, or None.

    Deterministic: composes the two canonical labelings."""
    node_cap = _whole(node_cap, "node_cap", 1)
    if p.widths != q.widths or len(p.covers) != len(q.covers):
        return None
    cert_p, order_p = _canonical(p, node_cap)
    cert_q, order_q = _canonical(q, node_cap)
    if cert_p != cert_q:
        return None
    els_p, els_q = p.elements, q.elements
    return {els_p[a]: els_q[b] for a, b in zip(order_p, order_q)}
