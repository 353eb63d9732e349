"""Normal forms modulo the complete intersections I(k, phi).

The generators a_i^(d_i+1) - tail_i (1 <= i <= k), with tail_i =
phi_i * a0^(d0+1), already form a Groebner basis: in grevlex with a0 the
smallest variable every term of tail_i carries a0, so the leading terms are
the pairwise coprime a_i^(d_i+1) (Buchberger's first criterion;
Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, ch. 2 section 9).  The
same holds in the chart a0 = 1, where tail_i is the dehomogenized psi_i of
degree at most d_i - d0.  So no completion is needed: one reduction by the
generators gives the normal form.  ``ci_normal_form`` reduces one
polynomial; ``ci_normal_forms`` reduces many monomials through one memo, as
the n*r columns of a quotient's multiplication matrices need.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heapify, heappop, heappush
from operator import add

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
    out: dict[Exponent, object] = {}
    work = dict(terms)
    heap = [(-sum(e), e[0], e) for e in work]
    heapify(heap)
    while heap:
        e = heappop(heap)[2]
        c = work.pop(e)
        if not c:
            continue
        image = _rewrite(e, exponents, tails)
        if image is None:
            out[e] = c
            continue
        for ne, tc in image:
            if ne in work:
                work[ne] = work[ne] + c * tc
            else:
                work[ne] = c * tc
                heappush(heap, (-sum(ne), ne[0], ne))
    return out


def ci_normal_forms(
    monomials,
    exponents: Exponent,
    tails: Sequence[SparsePoly],
    index: dict[Exponent, int],
) -> dict[Exponent, dict[int, object]]:
    """The normal forms of the nonstandard ``monomials``, through one memo.

    ``index`` numbers the standard monomials; ``exponents`` and ``tails`` are
    as in ``ci_normal_form``, whose remainders these are.  Returns the memo:
    it maps each given monomial, and each one met on the way, to its normal
    form as {index of a standard monomial: coefficient}, zeros dropped, so a
    monomial that several inputs rewrite to is reduced once.

    The first pass rewrites each nonstandard monomial once and keeps its
    image.  A rewrite strictly raises the key (-degree, a0 exponent), as in
    ``ci_normal_form`` (in the chart a0 = 1 it lowers the degree by at least
    d0 + 1), so the second pass resolves the monomials largest key first,
    that is by increasing degree, each after everything it rewrites to, with
    no recursion however long a chain of rewrites is.
    """
    images = {}
    todo = list(monomials)
    while todo:
        e = todo.pop()
        if e not in images:
            images[e] = image = _rewrite(e, exponents, tails)
            todo.extend(t for t, _ in image if t not in index and t not in images)
    memo: dict[Exponent, dict[int, object]] = {}
    for e in sorted(images, key=lambda e: (sum(e), -e[0])):
        form: dict[int, object] = {}
        for t, c in images[e]:
            if t in index:
                row = index[t]
                form[row] = form.get(row, 0) + c
            else:
                for row, v in memo[t].items():
                    form[row] = form.get(row, 0) + c * v
        memo[e] = {row: v for row, v in form.items() if v}
    return memo


def _rewrite(e: Exponent, exponents: Exponent, tails: Sequence[SparsePoly]):
    """a^e with a_i^(d_i+1) -> tails[i-1] for the first i <= len(tails) that divides it, as
    (monomial, coefficient) pairs; None when no such factor divides a^e."""
    over = next((i for i in range(1, len(tails) + 1) if e[i] > exponents[i]), None)
    if over is None:
        return None
    rest = tuple(ei - (exponents[over] + 1) if i == over else ei for i, ei in enumerate(e))
    return [(tuple(map(add, rest, te)), tc) for te, tc in tails[over - 1].terms.items()]
