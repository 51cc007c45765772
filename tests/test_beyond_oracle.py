"""P(n, m) and Q(n, m) checked at large n by routes that share no code
with the library.

Every scalar route, row and column runs ``core._stage_update``, so
comparing one route with another cannot catch a fault in it.  Here the
reference is sympy's Hardy-Ramanujan-Rademacher P(n), or a plain
coin-change double loop over residues mod a prime, written below."""

import pytest

from partita import core, p_column, p_parts, p_row, q_row

MOD = 2**61 - 1


def parts_at_most(total, m):
    """[partitions of k into parts <= m, mod MOD, for k = 0..total]."""
    c = [1] + [0] * total
    for part in range(1, m + 1):
        for k in range(part, total + 1):
            c[k] = (c[k] + c[k - part]) % MOD
    return c


def test_p_row_sums_to_rademacher():
    sympy = pytest.importorskip("sympy")
    assert sum(p_row(20000)) == int(sympy.partition(20000))


@pytest.mark.parametrize(
    "n, m, method, strategy",
    [
        (20000, 150, "alg1", "conv"),  # alg1 per residue class
        (40000, 70, "alg1", "direct"),  # alg1 block by block
        (5000, 300, "alg2", "conv"),
    ],
)
def test_routes_match_coin_change(n, m, method, strategy):
    # partitions of n into exactly m parts are those of n - m into parts <= m
    want = parts_at_most(n - m, m)
    if (n, m) == (40000, 70):
        assert n - m + 1 >= core._BLOCK_SLOTS and m >= core._BLOCK_STRIDE
    assert p_parts(n, m, method=method) % MOD == want[-1]
    column = p_column(n, m, strategy=strategy)
    assert [x % MOD for x in column] == want


def test_q_row_matches_coin_change():
    n = 5000
    row = q_row(n)
    for i in (1, 2, 10, 50, len(row)):
        # Q(n, i) counts partitions of n - i*(i + 1)/2 into parts <= i
        assert row[i - 1] % MOD == parts_at_most(n - i * (i + 1) // 2, i)[-1], i
