"""The marked-node corpus, kept as test support: every node of A2-A3,
B2-B4, C2-C4 and D4 (in ``simple_roots`` order), each made a symmetric
pair by the Borel-de Siebenthal rule ``sympair.marked_node_pair``.
"""

from functools import lru_cache

from dirackernel.roots import build_classical
from dirackernel.sympair import marked_node_pair

CORPUS = [(family, rank, node)
          for family, ranks in [("A", (2, 3)), ("B", (2, 3, 4)),
                                ("C", (2, 3, 4)), ("D", (4,))]
          for rank in ranks for node in range(rank)]


@lru_cache(maxsize=None)
def corpus_pair(family, rank, node):
    return marked_node_pair(build_classical(family, rank), node,
                            f"{family}{rank}_node{node}")
