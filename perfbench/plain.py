"""Expected values computed in plain Python, apart from the package.

Nothing here imports multicat.  Every function works on plain data: a
binary operation on an n-element carrier is a tuple of n*n outputs in
row-major order (``table[i * n + j]`` is ``x_i * x_j``), the same
lexicographic order in which the package stores function tables.
"""

from itertools import product


def is_unital(table, n, unit):
    return all(table[unit * n + x] == x and table[x * n + unit] == x
               for x in range(n))


def is_associative(table, n):
    return all(table[table[x * n + y] * n + z] == table[x * n + table[y * n + z]]
               for x in range(n) for y in range(n) for z in range(n))


def is_commutative(table, n):
    return all(table[x * n + y] == table[y * n + x]
               for x in range(n) for y in range(n))


def unital_binary_ops(n, commutative):
    """All (unit, table) pairs where table is a binary operation on
    {0..n-1} with two-sided unit `unit`; no associativity is imposed."""
    found = []
    for values in product(range(n), repeat=n * n):
        for unit in range(n):
            if is_unital(values, n, unit) and (
                    not commutative or is_commutative(values, n)):
                found.append((unit, values))
    return found


def homs(m1, m2, n):
    """Unit-preserving multiplicative maps between two (unit, table)
    structures on {0..n-1}."""
    e1, t1 = m1
    e2, t2 = m2
    out = []
    for images in product(range(n), repeat=n):
        if images[e1] != e2:
            continue
        if all(images[t1[x * n + y]] == t2[images[x] * n + images[y]]
               for x in range(n) for y in range(n)):
            out.append(images)
    return out


def hom_strings(n, commutative, length):
    """Number of strings A_0 -> ... -> A_length of homomorphisms between
    unital binary structures on a fixed n-element carrier."""
    structures = unital_binary_ops(n, commutative)
    counts = [[len(homs(a, b, n)) for b in structures] for a in structures]
    ways = [1] * len(structures)  # strings ending at each structure
    for _ in range(length):
        ways = [sum(ways[i] * counts[i][j] for i in range(len(structures)))
                for j in range(len(structures))]
    return sum(ways)


def interchanging_pairs(n, p_kind, q_kind):
    """Number of pairs (P-structure, Q-structure) on {0..n-1} whose
    operations interchange.

    A side of kind `unit` (the one-point operad) has no operations; a
    `commutative` side carries one commutative unital binary operation;
    an `associative` side of arity 2 carries a unital binary operation
    and its opposite.  Every pair of non-unit operations must interchange,
    the nullary ones (the units) included."""
    def structures(kind):
        if kind == "unit":
            return [(None, [])]
        out = []
        for unit, t in unital_binary_ops(n, kind == "commutative"):
            ops = [t]
            if kind == "associative":
                ops.append(tuple(t[y * n + x]
                                 for x in range(n) for y in range(n)))
            out.append((unit, ops))
        return out

    count = 0
    for ep, pops in structures(p_kind):
        for eq, qops in structures(q_kind):
            ok = ep is None or eq is None or ep == eq
            ok = ok and (eq is None or all(t[eq * n + eq] == eq for t in pops))
            ok = ok and (ep is None or all(t[ep * n + ep] == ep for t in qops))
            ok = ok and all(
                tp[tq[a * n + b] * n + tq[c * n + d]]
                == tq[tp[a * n + c] * n + tp[b * n + d]]
                for tp in pops for tq in qops
                for a in range(n) for b in range(n)
                for c in range(n) for d in range(n))
            count += ok
    return count


def double_factorial(m):
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def binary_tree_terms(n):
    """Terms of arity n in the free symmetric multicategory on one
    commutative binary generator: (2n-3)!!, and 1 at arity 1."""
    return 1 if n == 1 else double_factorial(2 * n - 3)


def end_of_bijection_size(carrier_size, k):
    """|End(f)| at arity k for a bijection f: one pair per function
    A^k -> A, the second component being forced."""
    return carrier_size ** (carrier_size ** k)


def conjugates(phi, psi, f, k, dom, cod):
    """Whether psi(f z) = f(phi z) for every z in dom^k, for function
    tables phi on dom^k and psi on cod^k in row-major order."""
    idx_cod = {v: i for i, v in enumerate(cod)}
    n = len(dom)
    for i, z in enumerate(product(dom, repeat=k)):
        j = 0
        for v in z:
            j = j * n + idx_cod[f[v]]
        if psi[j] != f[phi[i]]:
            return False
    return True
