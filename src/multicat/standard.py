"""Standard multicategories used throughout the test corpus and fixtures.

The associative family is built on the word model: an n-ary operation is
a word using each of n letters exactly once, composition is block
substitution of words, and the symmetric action relabels letters.  The
commutative family has a single operation per arity.
"""

from itertools import permutations

from . import perms
from .core import TableMulticategory, tabulate


def unit_multicategory(color="u"):
    """One color, only the identity; the tensor unit."""
    return _unary((color,), [((color,), color)], "1", "unit")


def _unary(colors, sigs, op, name):
    """The table with the one operation ``op`` at each unary signature of
    ``sigs``, every composite being the operation at the composed
    signature, built through `core.tabulate`."""
    table, _, _ = tabulate(
        colors, {s: [s] for s in sigs}, {c: ((c,), c) for c in colors},
        lambda s: op, lambda s, e, p: e, lambda s, e, i, qs, f: (qs[0], s[1]),
        name=name)
    return table


def word_id(w):
    return "w" + "".join(str(x) for x in w)


def word_substitute(w, i, u):
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


def word_relabel(w, sigma):
    """Symmetric action on words: acted(z) reads input sigma[t] at t, so
    each letter l is renamed to inverse(sigma)[l]."""
    inv = perms.inverse(sigma)
    return tuple(inv[l] for l in w)


def assoc_multicategory(max_arity=3, color="x", include_nullary=True):
    """Monoid laws, truncated: n-ary operations are the n! orderings.

    With include_nullary=False the empty word is dropped (the arity
    -positive part), which keeps bar-type constructions face-stable."""
    lo = 0 if include_nullary else 1
    table, _, _ = tabulate(
        (color,),
        {((color,) * n, color): sorted(permutations(range(n)))
         for n in range(lo, max_arity + 1)},
        {color: (0,)}, word_id, lambda s, w, p: word_relabel(w, p),
        lambda s, w, i, qs, u: word_substitute(w, i, u),
        arity_cap=max_arity, name=f"assoc{max_arity}")
    return table


def comm_multicategory(max_arity=3, color="x"):
    """Commutative monoid laws, truncated: one operation per arity."""
    table, _, _ = tabulate(
        (color,), {((color,) * n, color): [n] for n in range(max_arity + 1)},
        {color: 1}, lambda n: f"m{n}", lambda s, n, p: n,
        lambda s, n, i, qs, m: n + m - 1,
        arity_cap=max_arity, name=f"comm{max_arity}")
    return table


def indiscrete_pair(colors=("a", "b")):
    """Two isomorphic colors: exactly one morphism in every unary hom,
    nothing in higher arities."""
    return _unary(colors, [((a,), b) for a in colors for b in colors], "f",
                  "indiscrete2")


def discrete_pair(colors=("a", "b")):
    """Two colors with only identities; the colors are not isomorphic."""
    return _unary(colors, [((c,), c) for c in colors], "1", "discrete2")


def corrupt_unit(M):
    """Copy of M with the unit's composition row twisted by a transposition
    at one binary signature, used to validate the law checker."""
    swap = (1, 0)
    for s in M.signatures():
        if len(s[0]) != 2 or len(set(s[0])) != 1:
            continue
        comp = dict(M.comp)
        color = s[0][0]
        usig = ((color,), color)
        unit = M.units[color]
        changed = False
        for p in M.ops_at(s):
            twisted = M.ref_of(M.image(M.value((s, p)), swap))[1]
            if twisted == p:
                continue
            for slot in (0, 1):
                comp[s, p, slot, usig, unit] = twisted
                changed = True
        if changed:
            return TableMulticategory(
                collection=M.collection, units=dict(M.units), comp=comp,
                complete=M.complete, name=M.name + "-corrupt")
    raise ValueError("no binary signature with a nontrivial action")
