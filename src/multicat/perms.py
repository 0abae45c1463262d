"""Permutations and the block-permutation bookkeeping.

Conventions used everywhere in this package (all 0-based):

* A permutation of n letters is a tuple ``p`` with ``p[i]`` the image of
  position ``i``.
* The right symmetric action on an operation set sends an operation with
  input list ``xs`` to one with input list ``permute(xs, p)``, i.e.
  position ``i`` of the result reads input ``p[i]`` of the original.  On
  functions between finite products this is
  ``act(f, p)(z_0..z_{n-1}) = f(w)`` with ``w[s] = z[inverse(p)[s]]``,
  which gives the contravariance law ``act(f, compose(s, t)) =
  act(act(f, s), t)``.
* ``transpose_shuffle(m, k)`` rearranges a list of m blocks of k entries
  into k blocks of m entries.  It converts the composite "apply a k-ary
  operation to each of m blocks, then an m-ary one" into the composite
  "apply an m-ary operation to each of k blocks, then a k-ary one"; the
  two interchange squares in this package (multilinear naturality and
  bilinearity) both compare composites through it.
* ``expand_outer`` and ``expand_inner`` are the block permutations through
  which slot composition commutes with the symmetric actions; they are
  pinned by semantic tests against functions on finite sets.
"""

from functools import cache
from itertools import permutations as _permutations


@cache
def identity(n):
    """The identity permutation of n letters, one tuple per n."""
    return tuple(range(n))


def compose(p, q):
    """The permutation i -> p[q[i]] (apply q, then p)."""
    return tuple(p[q[i]] for i in range(len(q)))


def inverse(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def permute(xs, p):
    """Input list of the p-acted operation: position i reads xs[p[i]]."""
    return tuple(xs[p[i]] for i in range(len(p)))


@cache
def all_perms(n):
    """The permutations of n letters in lexicographic order, as one tuple
    per n shared by every caller."""
    return tuple(_permutations(range(n)))


@cache
def products(n):
    """``[a][b]``: the position of ``compose(ps[a], ps[b])`` in ``ps``,
    where ``ps = all_perms(n)``."""
    ps = all_perms(n)
    index = {p: a for a, p in enumerate(ps)}
    return tuple(tuple(index[compose(p, q)] for q in ps) for p in ps)


@cache
def adjacent_transpositions(n):
    """The transpositions (i, i+1) of n letters in order of i, as one
    tuple per n."""
    out = []
    for i in range(n - 1):
        t = list(range(n))
        t[i], t[i + 1] = t[i + 1], t[i]
        out.append(tuple(t))
    return tuple(out)


def act_on_function(table, p, in_sizes):
    """Right action on a function stored as an output tuple.

    ``table`` lists outputs over the lexicographic enumeration of the
    product of input index ranges ``in_sizes``; the acted function has
    input sizes ``permute(in_sizes, p)`` and satisfies
    ``acted(z) = f(w)`` with ``w[s] = z[inverse(p)[s]]``.
    """
    inv = inverse(p)
    new_sizes = permute(in_sizes, p)
    out = []
    for z in _lex_product(new_sizes):
        w = tuple(z[inv[s]] for s in range(len(z)))
        out.append(table[_lex_index(w, in_sizes)])
    return tuple(out)


def _lex_product(sizes):
    if not sizes:
        yield ()
        return
    from itertools import product

    yield from product(*[range(s) for s in sizes])


def _lex_index(tup, sizes):
    idx = 0
    for v, s in zip(tup, sizes):
        idx = idx * s + v
    return idx


@cache
def transpose_shuffle(m, k):
    """The permutation with p[i*k + j] = j*m + i  (i < m, j < k).

    Acting with it on an operation whose inputs are arranged as k blocks
    of m yields the same inputs arranged as m blocks of k.
    """
    p = [0] * (m * k)
    for i in range(m):
        for j in range(k):
            p[i * k + j] = j * m + i
    return tuple(p)


def expand_outer(sigma, i, k):
    """Block permutation E with  act(p, sigma) o_i q = act(p o_{sigma[i]} q, E).

    Here p is n-ary, q is k-ary, and slots are 0-based.  Position t of the
    left-hand side holds input sigma[t] of p for t < i, the q-block for
    i <= t < i+k, and input sigma[t-k+1] of p afterwards; E sends those
    positions to the corresponding positions of p o_{sigma[i]} q, where
    input j of p sits at j if j < sigma[i] and at j+k-1 otherwise, and the
    q-block occupies sigma[i]..sigma[i]+k-1.
    """
    n = len(sigma)
    s_i = sigma[i]

    def ppos(j):
        return j if j < s_i else j + k - 1

    p = []
    for t in range(i):
        p.append(ppos(sigma[t]))
    for l in range(k):
        p.append(s_i + l)
    for t in range(i + 1, n):
        p.append(ppos(sigma[t]))
    return tuple(p)


def expand_inner(n, i, tau):
    """Block permutation E with  p o_i act(q, tau) = act(p o_i q, E)."""
    k = len(tau)
    p = list(range(n + k - 1))
    for l in range(k):
        p[i + l] = i + tau[l]
    return tuple(p)


def block_permutation(sigma, sizes):
    """Permute consecutive blocks of the given sizes: block j of the result
    is block sigma[j] of the original, entries kept in order."""
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    out = []
    for j in range(len(sigma)):
        start = offsets[sigma[j]]
        out.extend(range(start, start + sizes[sigma[j]]))
    return tuple(out)


def unshuffle(act, ref, order):
    """An operation composed from blocks, whose input i is the input
    numbered ``order[i]``, renumbered so that input j is the one numbered
    j: ``act(ref, inverse(order))``, or ``ref`` when order is sorted."""
    rho = inverse(order)
    return ref if rho == identity(len(rho)) else act(ref, rho)
