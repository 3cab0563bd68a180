"""Gradings for the equivariant cohomology of projective-space bundles.

The extended grading group is free abelian on the trivial representation
1, the sign representation ``s`` (sigma) and two further generators ``W0``
and ``W1`` subject to ``W0 + W1 = 2s - 2``, so we eliminate ``W0`` and
store a degree ``m*W1 + a + b*s`` as the integer triple ``(m, a, b)``.
With this encoding the parity constraint relating the fixed-point ranks of
a degree holds automatically.  ``RO(C2)``, where the point ring is graded,
is the slice ``m = 0``: a point-ring degree ``a + b*s`` is ``(0, a, b)``,
so module and scalar degrees add in one type.

A degree determines a triple of real ranks: the underlying rank and the
ranks of the two fixed-point restrictions.  Euler classes of rank-``n``
bundle sums with fixed ranks ``n0``/``n1`` live in a specific degree and
the ranks can be read back off it; ``euler_grading`` and ``recover_ranks``
are inverse to each other (complex ranks in, complex ranks out).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PiBDegree:
    """A degree ``m*W1 + a + b*s`` in the extended grading group; the
    point-ring degrees are those with ``m = 0``."""

    m: int
    a: int
    b: int

    def __add__(self, other: "PiBDegree") -> "PiBDegree":
        return PiBDegree(self.m + other.m, self.a + other.a, self.b + other.b)

    def __str__(self) -> str:
        return format_degree(self.m, self.a, self.b)


@dataclass(frozen=True)
class RankTriple:
    """Ranks (whole space, fixed over B0, fixed over B1).

    Complex ranks in ``BundleSum.classified`` and ``recover_ranks`` (the
    inverse of ``euler_grading``, which takes complex ranks too); only
    ``rank_triple`` returns real ranks, twice the complex ones on an Euler
    grading.
    """

    n_total: int
    n_fix0: int
    n_fix1: int

    def __iter__(self):
        return iter((self.n_total, self.n_fix0, self.n_fix1))


# W0 = 2s - 2 - W1, so it is (-1, -2, 2) in the (m, a, b) encoding.
W0 = PiBDegree(-1, -2, 2)
W1 = PiBDegree(1, 0, 0)

# Gradings of the multiplicative generators of the cohomology of
# projective space: the two Euler classes sit in the bundle degrees
# omega = 2 + W1 and chi(omega) = 2 + W0, and the zeta classes in the
# degrees shifted down by 2.
DEG_CW = PiBDegree(1, 2, 0)
DEG_CXW = PiBDegree(-1, 0, 2)
DEG_Z1 = W1
DEG_Z0 = W0


def deg_add(x: PiBDegree, y: PiBDegree) -> PiBDegree:
    """Sum of degrees, componentwise in the (m, a, b) encoding."""
    return x + y


def rank_triple(x: PiBDegree) -> RankTriple:
    """Real rank triple of a degree: (a+b, a, a-2m)."""
    return RankTriple(x.a + x.b, x.a, x.a - 2 * x.m)


def euler_grading(n: int, n0: int, n1: int) -> PiBDegree:
    """Degree of the Euler class of a bundle with complex ranks (n, n0, n1).

    >>> euler_grading(4, 0, 0)
    PiBDegree(m=0, a=0, b=8)
    """
    if not (0 <= n0 <= n and 0 <= n1 <= n):
        raise ValueError(f"fixed ranks must lie between 0 and {n}: got {n0}, {n1}")
    return PiBDegree(n0 - n1, 2 * n0, 2 * (n - n0))


def recover_ranks(x: PiBDegree) -> RankTriple:
    """Complex ranks (n, n0, n1) of the Euler grading ``x``.

    Inverse of :func:`euler_grading`.  Raises ``ValueError`` when ``x`` has
    an odd coordinate, i.e. is not the grading of any Euler class.
    """
    if x.a % 2 or x.b % 2:
        raise ValueError(f"not an Euler-class grading (odd coordinate): {x}")
    half_a, half_b = x.a // 2, x.b // 2
    return RankTriple(half_a + half_b, half_a, half_a - x.m)


def join_signed(chunks: list[str]) -> str:
    """Join signed terms as ``a + b - c``: the first chunk keeps its sign,
    a later chunk written ``-x`` becomes `` - x``; "0" when empty."""
    if not chunks:
        return "0"
    out = [chunks[0]]
    for chunk in chunks[1:]:
        out.append(f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}")
    return "".join(out)


def format_degree(m: int, a: int, b: int) -> str:
    """Render ``m*W1 + a + b*s``, omitting zero terms ("0" if all vanish)."""
    parts = []
    if m:
        parts.append(f"{m}*W1")
    if a:
        parts.append(str(a))
    if b:
        parts.append(f"{b}*s")
    return join_signed(parts)

