"""The permutation conventions, pinned semantically against functions on
finite sets: these tests are what make every block-permutation formula in
the package trustworthy."""

from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from multicat import perms


def apply_perm(table, p, sizes):
    return perms.act_on_function(table, p, sizes)


def fn_table(fn, sizes):
    out = []
    for z in product(*[range(s) for s in sizes]):
        out.append(fn(*z))
    return tuple(out)


@given(st.permutations(range(4)), st.permutations(range(4)))
def test_compose_inverse(p, q):
    p, q = tuple(p), tuple(q)
    assert perms.compose(p, perms.inverse(p)) == perms.identity(4)
    assert perms.inverse(perms.compose(p, q)) == perms.compose(
        perms.inverse(q), perms.inverse(p))


@given(st.permutations(range(3)), st.permutations(range(3)))
def test_contravariance_on_functions(p, q):
    p, q = tuple(p), tuple(q)
    sizes = (2, 3, 2)
    table = fn_table(lambda a, b, c: (a + 2 * b + c) % 5, sizes)
    one = apply_perm(apply_perm(table, p, sizes), q, perms.permute(sizes, p))
    two = apply_perm(table, perms.compose(p, q), sizes)
    assert one == two


def test_transpose_shuffle_hand_expanded():
    # the 2x2 case written out by hand: composing a binary operation b
    # over two blocks, then m, against the shuffled other composite
    sigma = perms.transpose_shuffle(2, 2)
    assert sigma == (0, 2, 1, 3)

    def m(x, y):
        return x + y

    def b(x, y):
        return 2 ** x * 3 ** y

    # left route: m(b(z0,z1), b(z2,z3))
    left = fn_table(lambda z0, z1, z2, z3: m(b(z0, z1), b(z2, z3)),
                    (2, 2, 2, 2))
    # right route pre-shuffle: b(m(w0,w1), m(w2,w3))
    pre = fn_table(lambda w0, w1, w2, w3: b(m(w0, w1), m(w2, w3)),
                   (2, 2, 2, 2))
    shuffled = apply_perm(pre, sigma, (2, 2, 2, 2))
    # the shuffled right route reads b(m(z0,z2), m(z1,z3)): middle-four
    want = fn_table(lambda z0, z1, z2, z3: b(m(z0, z2), m(z1, z3)),
                    (2, 2, 2, 2))
    assert shuffled == want
    assert left != shuffled  # m after b is not b after m here


def compose_fn(ptable, p_sizes, slot, qtable, q_sizes, out_of):
    """f o_slot g on function tables over ranges."""
    new_sizes = p_sizes[:slot] + q_sizes + p_sizes[slot + 1:]
    out = []
    for z in product(*[range(s) for s in new_sizes]):
        mid = qtable[perms._lex_index(z[slot:slot + len(q_sizes)], q_sizes)]
        args = z[:slot] + (mid,) + z[slot + len(q_sizes):]
        out.append(ptable[perms._lex_index(args, p_sizes)])
    return out_of, tuple(out), new_sizes


@given(st.permutations(range(3)), st.integers(0, 2))
def test_expand_outer_semantics(sigma, i):
    sigma = tuple(sigma)
    p_sizes = (2, 2, 2)
    q_sizes = (2, 2)
    ptable = fn_table(lambda a, b, c: (a + 2 * b + 3 * c) % 4, p_sizes)
    qtable = fn_table(lambda a, b: (a * 2 + b) % 2, q_sizes)
    acted_p = apply_perm(ptable, sigma, p_sizes)
    _, left, left_sizes = compose_fn(
        acted_p, perms.permute(p_sizes, sigma), i, qtable, q_sizes, None)
    _, base, base_sizes = compose_fn(
        ptable, p_sizes, sigma[i], qtable, q_sizes, None)
    expand = perms.expand_outer(sigma, i, 2)
    assert left == apply_perm(base, expand, base_sizes)
    assert left_sizes == perms.permute(base_sizes, expand)


@given(st.permutations(range(2)), st.integers(0, 2))
def test_expand_inner_semantics(tau, i):
    tau = tuple(tau)
    p_sizes = (2, 2, 2)
    q_sizes = (3, 2)
    ptable = fn_table(lambda a, b, c: (a + b + c) % 2, p_sizes)
    qtable = fn_table(lambda a, b: (a + b) % 2, q_sizes)
    acted_q = apply_perm(qtable, tau, q_sizes)
    _, left, _ = compose_fn(ptable, p_sizes, i, acted_q,
                            perms.permute(q_sizes, tau), None)
    _, base, base_sizes = compose_fn(ptable, p_sizes, i, qtable, q_sizes,
                                     None)
    expand = perms.expand_inner(3, i, tau)
    assert left == apply_perm(base, expand, base_sizes)


def test_block_permutation():
    sigma = (1, 0, 2)
    sizes = (2, 1, 3)
    p = perms.block_permutation(sigma, sizes)
    items = ["a0", "a1", "b0", "c0", "c1", "c2"]
    assert perms.permute(items, p) == ("b0", "a0", "a1", "c0", "c1", "c2")


@pytest.mark.parametrize("n", range(5))
def test_all_perms_is_one_sorted_tuple_per_n(n):
    got = perms.all_perms(n)
    assert perms.all_perms(n) is got
    assert isinstance(got, tuple) and list(got) == sorted(got)
    assert len(set(got)) == len(got) == len(list(permutations(range(n))))


@pytest.mark.parametrize("n", range(5))
def test_adjacent_transpositions_and_identity_are_one_tuple_per_n(n):
    got = perms.adjacent_transpositions(n)
    assert perms.adjacent_transpositions(n) is got
    assert got == tuple((*range(i), i + 1, i, *range(i + 2, n))
                        for i in range(n - 1))
    assert perms.identity(n) is perms.identity(n) == tuple(range(n))

