"""Checks the bitmask Grassmann tables against a from-scratch oracle that
multiplies index words by explicit insertion sort."""

from itertools import combinations, product

from hypothesis import given, strategies as st

from k4verma import grassmann as gr


# -- oracle: wedge of index words, no bitmasks anywhere ---------------------

def wedge_words(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    word = list(a) + list(b)
    sign = 1
    # insertion sort, one transposition at a time
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    for x, y in zip(word, word[1:]):
        if x == y:
            return 0, ()
    return sign, tuple(word)


def all_subsets():
    for k in range(5):
        yield from combinations((1, 2, 3, 4), k)


def test_star_matches_word_oracle():
    for a in all_subsets():
        for b in all_subsets():
            sign, mask = gr.STAR[gr.mask_of(a)][gr.mask_of(b)]
            osign, oword = wedge_words(a, b)
            assert sign == osign
            if sign:
                assert gr.indices_of(mask) == oword


def test_pairs_and_the_product_of_two_generators():
    # xi_j xi_i is the one sign rule for a pair: 0 at i = j, else +-xi_ij
    # with the minus at j > i; PAIRS lists the pair masks lexicographically
    for j in (1, 2, 3, 4):
        for i in (1, 2, 3, 4):
            want = (0, 0) if i == j else \
                (-1 if j > i else 1, gr.mask_of((i, j)))
            assert gr.STAR[1 << (j - 1)][1 << (i - 1)] == want
    assert gr.PAIRS == (0b0011, 0b0101, 0b1001, 0b0110, 0b1010, 0b1100)


def test_eps_frozen_table():
    expect = {
        (): 1, (1,): 1, (2,): -1, (3,): 1, (4,): -1,
        (1, 2): 1, (1, 3): -1, (1, 4): 1, (2, 3): 1, (2, 4): -1, (3, 4): 1,
        (1, 2, 3): 1, (1, 2, 4): -1, (1, 3, 4): 1, (2, 3, 4): -1,
        (1, 2, 3, 4): 1,
    }
    for subset, value in expect.items():
        assert gr.EPS[gr.mask_of(subset)] == value


def test_eps_is_wedge_with_complement():
    for a in all_subsets():
        m = gr.mask_of(a)
        comp = gr.indices_of(gr.complement(m))
        sign, word = wedge_words(a, comp)
        assert word == (1, 2, 3, 4)
        assert sign == gr.EPS[m]


def test_hodge_frozen_entries():
    cases = {
        (2,): (1, (1, 3, 4)),
        (1, 3, 4): (-1, (2,)),
        (3, 4): (1, (1, 2)),
        (1, 4): (1, (2, 3)),
        (1, 3): (-1, (2, 4)),
        (1,): (-1, (2, 3, 4)),
        (): (1, (1, 2, 3, 4)),
    }
    for subset, (sign, comp) in cases.items():
        s, m = gr.HODGE[gr.mask_of(subset)]
        assert (s, gr.indices_of(m)) == (sign, comp)


def test_hodge_defining_property():
    # hodge(eta_I) * xi_I = +eta_1234 for every I
    for m in gr.ALL_MASKS:
        hs, hm = gr.HODGE[m]
        ss, sm = gr.STAR[hm][m]
        assert hs * ss == 1 and sm == gr.MASK_ALL


def test_hodge_squared_sign():
    for m in gr.ALL_MASKS:
        s1, m1 = gr.HODGE[m]
        s2, m2 = gr.HODGE[m1]
        assert m2 == m
        assert s1 * s2 == (-1) ** (gr.size(m) * (4 - gr.size(m)))


def test_derivative_signs():
    assert gr.derive(1, gr.mask_of((1, 2))) == (1, gr.mask_of((2,)))
    assert gr.derive(2, gr.mask_of((1, 2))) == (-1, gr.mask_of((1,)))
    assert gr.derive(3, gr.mask_of((1, 2)))[0] == 0
    # rightmost-first composition
    assert gr.derive_seq((1, 2, 3, 4), gr.MASK_ALL) == (1, 0)
    assert gr.derive_seq((1, 2), gr.mask_of((1, 2))) == (-1, 0)
    assert gr.derive_seq((2, 1), gr.mask_of((1, 2))) == (1, 0)


def test_derivative_is_odd_derivation():
    # partial_i(ab) = (partial_i a) b + (-1)^|a| a (partial_i b)
    for a in all_subsets():
        for b in all_subsets():
            am, bm = gr.mask_of(a), gr.mask_of(b)
            for i in (1, 2, 3, 4):
                ws, wm = gr.STAR[am][bm]
                lhs = {}
                if ws:
                    ds, dm = gr.derive(i, wm)
                    if ds:
                        lhs[dm] = ws * ds
                rhs: dict[int, int] = {}
                da, dam = gr.derive(i, am)
                if da:
                    s, m = gr.STAR[dam][bm]
                    if s:
                        rhs[m] = rhs.get(m, 0) + da * s
                db, dbm = gr.derive(i, bm)
                if db:
                    s, m = gr.STAR[am][dbm]
                    if s:
                        rhs[m] = rhs.get(m, 0) + (-1) ** len(a) * db * s
                rhs = {m: v for m, v in rhs.items() if v}
                assert lhs == rhs


def test_hodge_derivative_exchange():
    # hodge(partial_f eta_L) = (-1)^(|f|(|f|-1)/2 + |f||L|) xi_f * hodge(eta_L)
    for f in all_subsets():
        for L in all_subsets():
            fm, lm = gr.mask_of(f), gr.mask_of(L)
            ds, dm = gr.derive_seq(f, lm)
            lhs = (0, 0)
            if ds:
                hs, hm = gr.HODGE[dm]
                lhs = (ds * hs, hm)
            hs, hm = gr.HODGE[lm]
            ss, sm = gr.STAR[fm][hm]
            k, l = len(f), len(L)
            pref = (-1) ** (k * (k - 1) // 2 + k * l)
            rhs = (pref * hs * ss, sm) if ss else (0, 0)
            if lhs[0] == 0 or rhs[0] == 0:
                assert lhs[0] == rhs[0]
            else:
                assert lhs == rhs


@given(st.lists(st.integers(1, 4), max_size=6))
def test_normalize_agrees_with_sort_oracle(word):
    sign, mask = gr.normalize(word)
    osign, oword = wedge_words(tuple(word), ())
    assert sign == osign
    if sign:
        assert gr.indices_of(mask) == oword


def test_tables_agree_with_their_defining_loops():
    # indices_of and derive_seq read tables built at import; the loops
    # they replace are their definitions, over every mask and every word
    # of length <= 4
    for mask in gr.ALL_MASKS:
        assert gr.indices_of(mask) == \
            tuple(i for i in (1, 2, 3, 4) if mask & (1 << (i - 1)))
    words = [w for n in range(5) for w in product((1, 2, 3, 4), repeat=n)]
    for word in words:
        for mask in gr.ALL_MASKS:
            sign, m = 1, mask
            for i in reversed(word):
                s, m = gr.derive(i, m)
                sign *= s
            assert gr.derive_seq(word, mask) == ((sign, m) if sign else (0, 0))
