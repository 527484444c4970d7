"""The marked-node corpus, kept as test support: every node of A2-A3,
B2-B4, C2-C4 and D4 (in ``simple_roots`` order), each made a symmetric
pair by the Borel-de Siebenthal rule ``sympair.marked_node_pair``,
``W1_PAIRS``, the pairs whose W_1 the tests compare with references, and
``bott_sweep``, seeded admissible mu over every node up to a rank.
"""

import random
from functools import lru_cache

from dirackernel.roots import build_classical, grid
from dirackernel.sympair import (admissible_mu, builtin_pair,
                                 builtin_pair_names, marked_node_pair)
from reference_roots import half_c2_pair, quarter_delta_pair

CORPUS = [(family, rank, node)
          for family, ranks in [("A", (2, 3)), ("B", (2, 3, 4)),
                                ("C", (2, 3, 4)), ("D", (4,))]
          for rank in ranks for node in range(rank)]


@lru_cache(maxsize=None)
def corpus_pair(family, rank, node):
    return marked_node_pair(build_classical(family, rank), node,
                            f"{family}{rank}_node{node}")


def bott_sweep(top_rank, draws, seed=0):
    """(pair, mu) over every node of A, B and C from rank 2 and of D from
    rank 4, up to top_rank: per node, the distinct admissible mu among
    ``draws`` seeded draws of delta_p plus a shift in [-3, 3]^rank, each
    walked into the Delta_h-dominant chamber (W_H keeps F and F1, and
    moves delta_p by roots, so most walked draws are admissible)."""
    rng = random.Random(seed)
    for family, low in (("A", 2), ("B", 2), ("C", 2), ("D", 4)):
        for rank in range(low, top_rank + 1):
            for node in range(rank):
                pair = corpus_pair(family, rank, node)
                g = grid(pair.root_system)
                h = grid(pair.h_system, g.scale)
                found = set()
                for _ in range(draws):
                    x = tuple(c + g.scale * rng.randint(-3, 3)
                              for c in pair.delta_p_point)
                    mu = g.weight(h.walk(x)[1])
                    if admissible_mu(pair, mu):
                        found.add(mu)
                for mu in sorted(found):
                    yield pair, mu


# the built-ins, the marked-node corpus and two pairs whose grid needs D =
# 4 (the subgroup grid of c2_half needs only 2); b2_half, last, admits no
# mu
W1_PAIRS = ([builtin_pair(name) for name in builtin_pair_names()]
            + [corpus_pair(*node) for node in CORPUS]
            + [half_c2_pair(), quarter_delta_pair()])
