"""Composites and module actions on references, read straight off the
constructor tables (``comp``, ``right_table`` and ``left_table``) by the
documented rule: the table entry first, and a unit acts as the identity
only where the table has none.

The reference checks of the tests look their composites and actions up
here, so that they do not run through the lookups of the code they
check.  Kept apart from ``oracles.py``, which the benchmark loads."""

from functools import partial

from multicat.core import TableMulticategory, composed_sig
from multicat.errors import StructuralError


def is_unit(M, ref):
    (ins, out), op = ref
    return ins == (out,) and M.units.get(out) == op


def compose(M, pref, slot, qref):
    """p o_slot q off ``M.comp``, or None; a wrong slot or color raises
    CompositionError."""
    (psig, p), (qsig, q) = pref, qref
    rsig = composed_sig(psig, slot, qsig)
    r = M.comp.get((psig, p, slot, qsig, q))
    if r is not None:
        return rsig, r
    if is_unit(M, qref):
        return pref
    if is_unit(M, pref):
        return qref
    return None


def act_right(N, mref, slot, qref):
    """m acted on by q in its input slot, off ``N.right_table``, or None."""
    got = N.right_table.get((mref, slot, qref))
    if got is None and is_unit(N.right, qref):
        return mref
    return got


def act_left(N, pref, mrefs):
    """p acting on the elements mrefs, off ``N.left_table``, or None."""
    got = N.left_table.get((pref, tuple(mrefs)))
    if got is None and is_unit(N.left, pref):
        return mrefs[0]
    return got


def gamma(step, pref, qrefs):
    """p(q_1..q_n) by ``step(p, slot, q)``, the arguments substituted
    smallest arity first, or None as soon as a step gives None."""
    n = len(pref[0][0])
    arity = [len(q[0][0]) for q in qrefs]
    positions = list(range(n))
    out = pref
    for i in sorted(range(n), key=arity.__getitem__):
        out = step(out, positions[i], qrefs[i])
        if out is None:
            return None
        for j in range(n):
            if positions[j] > positions[i]:
                positions[j] += arity[i] - 1
    return out


def composite(Q):
    """Q's slot composite on references, None where there is none: off
    ``comp`` for a table, else through Q's raising ``compose1``."""
    if isinstance(Q, TableMulticategory):
        return partial(compose, Q)

    def step(pref, slot, qref):
        try:
            return Q.compose1(pref, slot, qref)
        except StructuralError:
            return None

    return step


def act(Q, ref, p):
    """Q's symmetric action on a reference: off the action tables for a
    table, else Q's own ``act``."""
    if isinstance(Q, TableMulticategory):
        return Q.collection.act(ref, p)
    return Q.act(ref, p)
