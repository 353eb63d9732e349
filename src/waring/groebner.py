"""Normal forms modulo the complete intersections I(k, phi).

The generators a_i^(d_i+1) - tail_i (1 <= i <= k), with tail_i =
phi_i * a0^(d0+1), already form a Groebner basis: in grevlex with a0 the
smallest variable every term of tail_i carries a0, so the leading terms are
the pairwise coprime a_i^(d_i+1) (Buchberger's first criterion;
Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 section 9).  The
same holds in the chart a0 = 1, where tail_i is the dehomogenized psi_i of
degree at most d_i - d0.  So no completion is needed: one reduction by the
generators gives the normal form.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heappop, heappush

from .polynomial import Exponent, SparsePoly


def ci_normal_form(
    terms: dict[Exponent, object],
    exponents: Exponent,
    tails: Sequence[SparsePoly],
) -> dict[Exponent, object]:
    """Rewrite a_i^(d_i+1) -> tails[i-1] until no term has such a factor.

    ``exponents`` is (d0, ..., dn) and ``len(tails)`` is k; terms divisible by
    a_j^(d_j+1) with j > k are left alone.  Every leading coefficient is 1, so
    nothing is divided.  The remainder is unique because the generators are a
    Groebner basis: the input lies in the ideal exactly when it is empty.

    Pending monomials are popped smallest key (-degree, a0 exponent) first.
    A rewrite strictly raises that key: a homogeneous tail keeps the degree
    and brings in a0^(d0+1), a tail in the chart a0 = 1 has lower degree.  So
    every contribution to a monomial arrives before it is popped, each
    monomial is rewritten once, and the loop ends.
    """
    k = len(tails)
    out: dict[Exponent, object] = {}
    work = dict(terms)
    heap = [(-sum(e), e[0], e) for e in work]
    heapify(heap)
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e)
        if not c:
            continue
        over = next((i for i in range(1, k + 1) if e[i] > exponents[i]), None)
        if over is None:
            out[e] = c
            continue
        rest = tuple(ei - (exponents[over] + 1) if i == over else ei for i, ei in enumerate(e))
        for te, tc in tails[over - 1].terms.items():
            ne = tuple(a + b for a, b in zip(rest, te))
            if ne in work:
                work[ne] = work[ne] + c * tc
            else:
                work[ne] = c * tc
                heappush(heap, (-sum(ne), ne[0], ne))
    return out
