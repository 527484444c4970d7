"""The marked-node corpus, kept as test support: every node of A2-A3,
B2-B4, C2-C4 and D4 (in ``simple_roots`` order), each made a symmetric
pair by the Borel-de Siebenthal rule ``sympair.marked_node_pair``, and
``W1_PAIRS``, the pairs whose W_1 the tests compare with references.
"""

from functools import lru_cache

from dirackernel.roots import build_classical
from dirackernel.sympair import (builtin_pair, builtin_pair_names,
                                 marked_node_pair)
from reference_roots import bc1_pair, quarter_delta_pair

CORPUS = [(family, rank, node)
          for family, ranks in [("A", (2, 3)), ("B", (2, 3, 4)),
                                ("C", (2, 3, 4)), ("D", (4,))]
          for rank in ranks for node in range(rank)]


@lru_cache(maxsize=None)
def corpus_pair(family, rank, node):
    return marked_node_pair(build_classical(family, rank), node,
                            f"{family}{rank}_node{node}")


# the built-ins, the marked-node corpus, a pair whose grid needs D = 4 and
# one with a root twice another
W1_PAIRS = ([builtin_pair(name) for name in builtin_pair_names()]
            + [corpus_pair(*node) for node in CORPUS]
            + [quarter_delta_pair(), bc1_pair()])
