"""Orderings on load-buffer words and configurations, and antichain sets.

Buffer words are tuples of messages with position 0 the newest entry
(the append side) and position -1 the oldest (the consume side).  A
load-buffer message is a triple (var, val, own); own marks an entry the
process wrote itself.  The word ordering compares the per-variable
most-recent own-messages exactly and the fragments between them by the
subword relation; it is a well-quasi-ordering, which is what makes the
backward fixpoint terminate.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

from .runs import Table

Msg = tuple[str, int, bool]
Word = tuple[Msg, ...]


def subword(u: tuple, v: tuple) -> bool:
    """True iff u embeds into v by a strictly increasing injection."""
    if len(u) > len(v):
        return False
    i = 0
    for sym in v:
        if i < len(u) and u[i] == sym:
            i += 1
    return i == len(u)


class OwnDecomposition(NamedTuple):
    """Fragments around the most-recent own-message per variable.

    fragments has one more entry than delimiters; interleaving them in
    order, each delimiter (x, v) as the own-message (x, v, True),
    reconstructs the original word.
    """

    fragments: tuple[Word, ...]
    delimiters: tuple[tuple[str, int], ...]


@lru_cache(maxsize=None)
def own_decompose(w: Word) -> OwnDecomposition:
    """Split w at the newest own-message of each variable."""
    fragments: list[Word] = []
    delimiters: list[tuple[str, int]] = []
    seen: set[str] = set()
    frag: list[Msg] = []
    for msg in w:
        x, v, own = msg
        if own and x not in seen:
            seen.add(x)
            fragments.append(tuple(frag))
            frag = []
            delimiters.append((x, v))
        else:
            frag.append(msg)
    fragments.append(tuple(frag))
    return OwnDecomposition(tuple(fragments), tuple(delimiters))


def word_leq(w: Word, w2: Word) -> bool:
    """Buffer-word ordering: equal delimiters, fragment-wise subword."""
    a = own_decompose(w)
    b = own_decompose(w2)
    if a.delimiters != b.delimiters:
        return False
    return all(subword(fa, fb) for fa, fb in zip(a.fragments, b.fragments))


def word_table() -> Table:
    """word_leq as a Table on (w, w2), for one search to own: buffer
    words repeat heavily, so each distinct pair is decided once.  Its
    callers test identity first, so it is not repeated here."""
    return Table(lambda pair: word_leq(*pair))


def config_leq(c, c2) -> bool:
    """Configuration ordering: equal states and memory, word_leq per
    buffer."""
    if len(c.states) != len(c2.states):
        raise ValueError("config_leq over different process sets")
    if c.states != c2.states or c.mem != c2.mem:
        return False
    for b, b2 in zip(c.buffers, c2.buffers):
        if not (b is b2 or word_leq(b, b2)):
            return False
    return True


def param_leq(a, a2) -> bool:
    """Parameterized ordering: equal memory plus an order-preserving
    injection matching states exactly and buffers by word_leq.

    Decided by greedy earliest-match, which is complete for
    order-preserving injections with per-element predicates.
    """
    if a.mem != a2.mem:
        return False
    if len(a.procs) > len(a2.procs):
        return False
    j = 0
    for state, buf in a.procs:
        while j < len(a2.procs):
            state2, buf2 = a2.procs[j]
            j += 1
            if state == state2 and (buf is buf2 or word_leq(buf, buf2)):
                break
        else:
            return False
    return True


class Dominance(NamedTuple):
    """MinorSet's dominance hook.  `pack(elem)` is a pair (fields,
    support), from one walk over elem.  fields is an int of unsigned
    fixed-width fields, each with a guard bit above it, such that
    leq(a, b) implies that every field of a's is at most the same field
    of b's; `guard` has exactly the guard bits set.  support is a
    bitmask such that leq(a, b) implies that a's bits are a subset of
    b's."""

    pack: Callable
    guard: int


class MinorSet:
    """An antichain of configurations representing an upward-closed set.

    `leq` is the ordering; `key` maps an element to a bucket such that
    comparable elements always share a bucket (a pure pre-filter).
    `sig`, if given, maps an element to a signature that comparable
    elements share too; each member keeps its signature, interned so
    that equal signatures are one object, beside it in its bucket, and
    `leq` runs only against members whose signature is the element's.
    `dom`, a Dominance given instead of `sig`, splits each bucket into
    sub-buckets by support mask, the first level of a covering sharing
    tree, and keeps each member's packed int beside it in its
    sub-bucket.  An element is compared only with the sub-buckets whose
    mask is a subset of its own (for members below it) or a superset
    (for members above it), and there `leq(a, b)` runs only when every
    field of a's int is at most b's, which one subtraction decides:
    ((b | guard) - a) & guard == guard.
    `covers` and `insert` share one scan of the element's bucket, which
    stops at the first member below the element and otherwise lists the
    members above it; `insert` changes nothing before the scan ends.
    Iteration follows insertion order, deterministically; membership is
    by value.  Neither pre-filter changes an answer, the members or
    their order: which members lie below or above an element does not
    depend on the order they are scanned in.
    """

    def __init__(
        self,
        leq: Callable,
        key: Callable | None = None,
        sig: Callable | None = None,
        dom: Dominance | None = None,
    ):
        if sig is not None and dom is not None:
            raise ValueError("MinorSet takes sig or dom, not both")
        self._leq = leq
        self._key = key if key is not None else (lambda c: None)
        self._sig = sig
        self._dom = dom
        self._sigs: dict = {}  # interned signatures
        # key -> (members, their signatures); with dom,
        # key -> {support mask: (members, their packed ints)}
        self._buckets: dict = {}
        self._members: dict = {}  # insertion-ordered; values unused

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __contains__(self, elem) -> bool:
        return elem in self._members

    def elements(self) -> list:
        return list(self._members)

    def covers(self, elem) -> bool:
        """True iff elem is in the represented upward closure."""
        bucket = self._buckets.get(self._key(elem))
        if bucket is None:
            return False
        if self._dom is not None:
            probe = self._dom.pack(elem)
        else:
            probe = self._sigs.get(self._sig(elem)) if self._sig is not None else None
        return self._scan(bucket, elem, probe) is None

    def _scan(self, bucket, elem, probe) -> list | None:
        """None if a member of elem's `bucket` lies below elem, else the
        members above it as (sub-bucket, index) pairs in scan order.
        probe is elem's signature (None without sig), or dom's pack."""
        leq = self._leq
        above = []
        if self._dom is None:
            members, slots = bucket
            for i, ms in enumerate(slots):
                if ms is probe:
                    m = members[i]
                    if leq(m, elem):
                        return None
                    if leq(elem, m):
                        above.append((bucket, i))
            return above
        g = self._dom.guard
        d, mask = probe
        up = d | g
        sm = mask
        while True:  # every submask of mask, mask itself first and 0 last
            sub = bucket.get(sm)
            if sub is not None:
                for m, md in zip(*sub):
                    if (up - md) & g == g and leq(m, elem):
                        return None
            if not sm:
                break
            sm = (sm - 1) & mask
        for sm, sub in bucket.items():
            if mask & ~sm:
                continue
            members, slots = sub
            for i, md in enumerate(slots):
                if ((md | g) - d) & g == g and leq(elem, members[i]):
                    above.append((sub, i))
        return above

    def insert(self, elem) -> bool:
        """Add elem unless a member lies below it, evicting the members
        above it; True iff elem went in.  An equal member lies below
        elem, so elem is refused before any scan."""
        if elem in self._members:
            return False
        dom = self._dom
        if dom is not None:
            probe = dom.pack(elem)
        elif self._sig is not None:
            probe = self._sig(elem)
            probe = self._sigs.setdefault(probe, probe)
        else:
            probe = None
        k = self._key(elem)
        bucket = self._buckets.get(k)
        if bucket is None:
            bucket = self._buckets[k] = {} if dom is not None else ([], [])
        above = self._scan(bucket, elem, probe)
        if above is None:
            return False
        for (members, slots), i in reversed(above):
            del self._members[members[i]]
            del members[i], slots[i]
        if dom is not None:  # the sub-bucket of elem's mask, beside its packed int
            probe, mask = probe
            bucket = bucket.setdefault(mask, ([], []))
        bucket[0].append(elem)
        bucket[1].append(probe)
        self._members[elem] = None
        return True
