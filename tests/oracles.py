"""Independent brute-force oracles used to freeze expected values.

Everything here is written from scratch and never imports the package
under test: plain multiplication-table searches, parent-pointer tree
enumeration, chain counting, orbit dedup on symbolic atoms.  The values
these functions produce are recorded in tests/fixtures/oracle_fixtures.json
(see gen_fixtures.py); the package is then tested against the frozen file.
"""

from itertools import combinations, permutations, product
from math import comb, factorial


# ---------------------------------------------------------------------------
# monoid / commutative monoid census by multiplication-table search


def monoid_tables(n, commutative=False):
    """All (unit, table) monoid structures on {0..n-1}; table[x][y] = x*y."""
    found = []
    cells = [(x, y) for x in range(n) for y in range(n)]
    for values in product(range(n), repeat=n * n):
        table = [[0] * n for _ in range(n)]
        for (x, y), v in zip(cells, values):
            table[x][y] = v
        units = [e for e in range(n)
                 if all(table[e][x] == x and table[x][e] == x for x in range(n))]
        if len(units) != 1:
            # two distinct two-sided units are impossible, so this means none
            continue
        if commutative and any(table[x][y] != table[y][x]
                               for x in range(n) for y in range(n)):
            continue
        if any(table[table[x][y]][z] != table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n)):
            continue
        found.append((units[0], tuple(tuple(row) for row in table)))
    return found


def count_monoids(n, commutative=False):
    return len(monoid_tables(n, commutative))


def monoid_homs(m1, m2):
    """All unit-preserving multiplicative maps between two monoid tables."""
    e1, t1 = m1
    e2, t2 = m2
    n1 = len(t1)
    n2 = len(t2)
    homs = []
    for images in product(range(n2), repeat=n1):
        if images[e1] != e2:
            continue
        if all(images[t1[x][y]] == t2[images[x]][images[y]]
               for x in range(n1) for y in range(n1)):
            homs.append(images)
    return homs


def monoid_triple_census(n1, n2, commutative=False):
    """Number of triples (structure on an n1-set, structure on an n2-set, hom)."""
    ms1 = monoid_tables(n1, commutative)
    ms2 = monoid_tables(n2, commutative)
    return sum(len(monoid_homs(a, b)) for a in ms1 for b in ms2)


def monoid_string2_census(n, commutative=False):
    """Number of length-2 strings of homs between monoids on fixed n-sets."""
    ms = monoid_tables(n, commutative)
    counts = {(i, j): len(monoid_homs(a, b))
              for i, a in enumerate(ms) for j, b in enumerate(ms)}
    total = 0
    for i in range(len(ms)):
        for j in range(len(ms)):
            if counts[i, j] == 0:
                continue
            for k in range(len(ms)):
                total += counts[i, j] * counts[j, k]
    return total


# ---------------------------------------------------------------------------
# planar rooted trees with numbered vertices and numbered leaves
#
# A configuration: k vertices where vertex i has valences[i] child slots,
# n leaves, one vertex the root, and every non-root vertex and every leaf
# occupies exactly one child slot, bijectively.  A planar rooted tree has
# no nontrivial planar automorphism, so each valid configuration is exactly
# one equivalence class of numbered trees.


def numbered_tree_count(valences, n):
    k = len(valences)
    if k == 0:
        return 1 if n == 1 else 0
    if n != sum(valences) - k + 1 or n < 0:
        return 0
    total = 0
    for root in range(k):
        occ = [("v", v) for v in range(k) if v != root]
        occ += [("leaf", l) for l in range(n)]
        slots = [(v, s) for v in range(k) for s in range(valences[v])]
        if len(occ) != len(slots):
            continue
        for assignment in permutations(slots):
            parent = dict(zip(occ, assignment))
            ok = True
            for item in occ:
                seen = set()
                cur = item
                while cur != ("v", root):
                    if cur in seen:
                        ok = False
                        break
                    seen.add(cur)
                    cur = ("v", parent[cur][0])
                if not ok:
                    break
            if ok:
                total += 1
    return total


def corolla_composition(tau, rho):
    """Compose numbered corollas: outer numbering tau, inner numbering rho.

    Numberings are tuples mapping leaf number -> planar slot.  The l-th
    planar slot of the outer vertex receives the inner leaf numbered l, so
    number t ends up at planar slot rho[tau[t]].
    """
    return tuple(rho[tau[t]] for t in range(len(tau)))


# ---------------------------------------------------------------------------
# word-substitution model of associativity


def word_substitute(w, i, u):
    """Substitute the block u into letter i of w (all 0-based)."""
    m = len(u)
    out = []
    for letter in w:
        if letter < i:
            out.append(letter)
        elif letter == i:
            out.extend(i + x for x in u)
        else:
            out.append(letter + m - 1)
    return tuple(out)


# ---------------------------------------------------------------------------
# two-level trees: per-arity sizes of a circle product of one-colored
# symmetric sequences.  An element is an orbit of (root op, ordered blocks
# of input positions with an inner op on each) under permuting the blocks
# simultaneously with the symmetric action on the root.


def ordered_blocks(n, k):
    """Ordered partitions of positions 0..n-1 into k possibly-empty blocks."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for assign in product(range(k), repeat=n):
        yield tuple(tuple(p for p in range(n) if assign[p] == b)
                    for b in range(k))


def circle_sizes_regular(m_sizes, n_sizes, max_arity):
    """Circle product sizes when the root action is free per arity with
    |M(k)| = k! or 0 (as for the associative operad and its positive
    part): every orbit of (root, blockdata) under the simultaneous block
    permutation has exactly k! members, so counting is a division."""
    sizes = []
    for n in range(max_arity + 1):
        count = 0
        for k, mk in enumerate(m_sizes):
            if mk == 0:
                continue
            if mk != factorial(k):
                raise ValueError("root sizes are not regular")
            arrangements = 0
            for blocks in ordered_blocks(n, k):
                ways = 1
                for b in blocks:
                    ways *= n_sizes[len(b)] if len(b) < len(n_sizes) else 0
                arrangements += ways
            count += (mk * arrangements) // factorial(k)
        sizes.append(count)
    return sizes


def circle_sizes_trivial(m_sizes, n_sizes, max_arity):
    """Circle product sizes when the root action is trivial (single op per
    arity suffices for our corpus): dedupe blockdata orbits per root."""
    sizes = []
    for n in range(max_arity + 1):
        atoms = set()
        for k, mk in enumerate(m_sizes):
            if mk == 0:
                continue
            for blocks in ordered_blocks(n, k):
                choices = [range(n_sizes[len(b)]) if len(b) < len(n_sizes)
                           else range(0) for b in blocks]
                for ops in product(*choices):
                    data = tuple(zip(blocks, ops))
                    key = min(tuple(data[s] for s in sigma)
                              for sigma in permutations(range(k)))
                    for root in range(mk):
                        atoms.add((k, root, key))
        sizes.append(len(atoms))
    return sizes


# ---------------------------------------------------------------------------
# composable chains in a finite graph-with-composition (for nerve level sizes)


def chain_count(n_objects, arrows, level):
    """arrows: list of (src, dst) pairs, identities included."""
    if level == 0:
        return n_objects
    count = 0
    frontier = [(a,) for a in arrows]
    for _ in range(level - 1):
        frontier = [chain + (a,) for chain in frontier
                    for a in arrows if chain[-1][1] == a[0]]
    return len(frontier)


# ---------------------------------------------------------------------------
# free-structure counts


def planar_tree_count(arity, generator_arities):
    """Trees with `arity` leaves, vertices labeled by generator arities,
    counting the bare edge; sizes of the free non-symmetric construction
    on one generator per listed arity.  Arities must be >= 2 so the count
    is finite and the recursion (on strictly fewer leaves) well founded."""
    from functools import lru_cache

    gens = tuple(generator_arities)
    if any(k < 2 for k in gens):
        raise ValueError("only generators of arity >= 2 are supported")

    def compositions(n, k):
        # parts >= 1: a subtree with zero leaves needs a nullary generator
        if k == 0:
            if n == 0:
                yield ()
            return
        for first in range(1, n - k + 2):
            for rest in compositions(n - first, k - 1):
                yield (first,) + rest

    @lru_cache(maxsize=None)
    def trees(n):
        total = 1 if n == 1 else 0
        for k in gens:
            for split in compositions(n, k):
                ways = 1
                for part in split:
                    ways *= trees(part)
                total += ways
        return total

    return trees(arity)


def planar_term_counts(colors, generators, max_arity, max_vertices):
    """Planar trees within the caps by signature, the sizes of the free
    non-symmetric construction: each vertex carries one of the
    ``generators[(inputs, output)]`` labels of its signature (a count), a
    leaf is an input, and the bare edge of each color is counted.  A
    signature is the tuple of leaf colors left to right and the root's
    color.  Kept are the trees with at most ``max_vertices`` vertices and
    ``max_arity`` leaves; nullary and unary labels are allowed, since the
    vertex cap keeps the count finite."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def trees(color, vertices):
        # {leaf colors: count} of the trees with exactly this many vertices
        if vertices == 0:
            return {(color,): 1}
        out = {}
        for (inputs, output), labels in generators.items():
            if output != color:
                continue
            # the vertices below the root, dealt to its children in order
            for split in product(range(vertices), repeat=len(inputs)):
                if sum(split) != vertices - 1:
                    continue
                partial = {(): labels}
                for c, v in zip(inputs, split):
                    grown = {}
                    for leaves, n in partial.items():
                        for more, m in trees(c, v).items():
                            if len(leaves + more) <= max_arity:
                                key = leaves + more
                                grown[key] = grown.get(key, 0) + n * m
                    partial = grown
                for leaves, n in partial.items():
                    out[leaves] = out.get(leaves, 0) + n
        return out

    counts = {}
    for color in colors:
        for v in range(max_vertices + 1):
            for leaves, n in trees(color, v).items():
                if len(leaves) <= max_arity:
                    key = (leaves, color)
                    counts[key] = counts.get(key, 0) + n
    return counts


def labeled_magma_count(arity):
    """Products of `arity` distinct letters in a magma: binary tree shapes
    times leaf labelings."""
    def shapes(n):
        if n == 1:
            return 1
        return sum(shapes(i) * shapes(n - i) for i in range(1, n))

    return shapes(arity) * factorial(arity)


def commutative_binary_count(arity):
    """Operations of the free symmetric operad on one commutative binary
    generator: unordered binary trees on `arity` numbered leaves, counted
    by splitting the leaf set at the root; (2n-3)!! for n >= 2.  A tree
    with n leaves has n - 1 vertices."""
    def trees(leaves):
        if len(leaves) == 1:
            return 1
        first, rest = leaves[0], leaves[1:]
        total = 0
        # the subtree holding the first leaf, then the other one
        for k in range(len(rest)):
            for others in combinations(rest, k):
                right = tuple(x for x in rest if x not in others)
                total += trees((first,) + others) * trees(right)
        return total

    return trees(tuple(range(arity)))


def multiset_count(n, k):
    return comb(n + k - 1, k)
