"""Every route to a rank agrees across a sweep of one small sine.

W is built from its CS decomposition with one sine swept over 1e-3 ... 1e-13
and the other angles generic.  Odd order reads rank A three ways: the form
(the rank A corner block of W), the SVD of A, and 2n+1 - (n - rank M) from
the CS factors, with M M* = I - K K*.  Even order reads rank S two ways:
the form (the lower-left block of W) and the sines of the CS factors, and
checks n + rank S against the SVDs of A and B and both corner blocks of W.
The unit-scale ranks cut sines and singular values at RANK_REL = 1e-10,
the SVDs of A and B at RANK_REL relative to their largest singular value,
so the routes may differ only near that cutoff: sines in the band
[1e-11, 1e-9] are not swept.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag

from bccanon import (
    OrderSpec,
    canonical_decompose,
    construct_even_from_W,
    construct_from_W,
    cs_core,
    even_canonical_decompose,
    haar_unitary,
    numerical_rank,
)
from bccanon.linalg import RANK_REL, unit_rank

EXPONENTS = [e for e in range(3, 14) if not 9 <= e <= 11]  # sine = 10**-e


def one_small_sine_unitary(spec, sine, rng):
    p, q = spec.csd_partition
    n = min(p, q)
    cos = np.concatenate([[np.sqrt(1.0 - sine**2)], np.sort(rng.uniform(0.05, 0.95, n - 1))[::-1]])
    sin = np.concatenate([[sine], np.sqrt(1.0 - cos[1:] ** 2)])
    left = block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    right = block_diag(haar_unitary(p, rng), haar_unitary(q, rng))
    return left @ cs_core(p, q, cos, sin) @ right


def m_route_rank_a(form):
    """2n+1 - (n - rank M) with M = U_big[rest, rest] diag(sin).

    The CS block with n+1 rows is block 1, structural unit last, when p > q,
    and block 2, structural unit first, when q > p.
    """
    cs = form.cs
    n = len(cs.sin)
    m_block = (cs.u1[:n, :n] if cs.p > cs.q else cs.u2[1:, 1:]) * cs.sin
    rank_m = int(np.count_nonzero(np.linalg.svd(m_block, compute_uv=False) > RANK_REL))
    return n + 1 + rank_m


@pytest.mark.parametrize("m", [5, 7, 6, 8])
@pytest.mark.parametrize("e", EXPONENTS)
def test_rank_routes_agree(m, e):
    spec = OrderSpec.from_order(m)
    n = spec.n
    w = one_small_sine_unitary(spec, 10.0**-e, np.random.default_rng([m, e]))
    lost = 0 if e < 10 else 1
    if spec.is_odd_order:
        pair = construct_from_W(w, spec)
        form = canonical_decompose(pair)
        assert form.predicted_rank_A == numerical_rank(pair.A) == m_route_rank_a(form)
        assert form.predicted_rank_A == m - lost
    else:
        pair = construct_even_from_W(w, spec)
        form = even_canonical_decompose(pair)
        ranks = (numerical_rank(pair.A), numerical_rank(pair.B))
        block_ranks = (n + unit_rank(form.W[n:, :n]), n + unit_rank(form.W[:n, n:]))  # rank A, rank B blocks
        assert block_ranks == ranks == (n + form.rank_S,) * 2
        assert form.rank_S == np.count_nonzero(form.cs.sin > RANK_REL)
        assert form.rank_S == n - lost
