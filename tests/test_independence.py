"""The theorem path and the oracle share only the lattice and root
primitives and Weyl's product: each path runs in a fresh process, traced
with ``sys.setprofile``, and the library functions the two reach are
compared with a list of the shared ones, each with its reason.

The sample is the five built-ins, c2_half and D6 node 5 over the
admissible mu with |lambda_i| <= 1.  The box, and for the oracle every
kernel result, are read first, untraced, on separately built equal twins
of the pairs, and then every cache of the package is cleared: the traced
pairs hold nothing computed for them, and no cached value hides a call.
The theorem run traces ``dirac_kernel``; the oracle run traces
``euler_verify`` with the kernel's frames cut out (it is handed the twins'
results), so only the oracle's own calls are seen.
"""

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import dirackernel

TRACE = r"""
import json, sys

from dirackernel import characters, dirac, lattice, roots, spin, sympair
from dirackernel.sympair import SymmetricPair, builtin_pair, builtin_pair_names
from reference_roots import admissible_box, half_c2_pair


def library():
    # (module, object): the functions, classes' attributes included, that
    # the package defines
    for module in (characters, dirac, lattice, roots, spin, sympair):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__:
                for f in vars(obj).values() if isinstance(obj, type) else [obj]:
                    yield module.__name__.split(".")[-1], f


# each function's code -> module.qualname, for methods, properties and
# cached functions too (co_qualname is Python 3.11+ only)
names = {}
for module, f in library():
    f = getattr(f, "fget", None) or getattr(f, "func", None) or f
    f = getattr(f, "__wrapped__", f)
    if hasattr(f, "__code__"):
        names[f.__code__] = f"{module}.{f.__qualname__}"
pairs = [builtin_pair(name) for name in builtin_pair_names()] + [
    half_c2_pair(),
    sympair.marked_node_pair(roots.build_classical("D", 6), 5, "so12_u6")]
twins = {p.name: SymmetricPair(p.root_system, p.h_positive, p.lattice_F,
                               p.lattice_F1, p.name) for p in pairs}
ops = [(p, mu) for p in pairs for _lam, mu in admissible_box(twins[p.name], 1)]
if sys.argv[1] == "theorem":
    path = dirac.dirac_kernel
else:
    kernel = {(p.name, mu): dirac.dirac_kernel(twins[p.name], mu)
              for p, mu in ops}
    dirac.dirac_kernel = lambda pair, mu: kernel[pair.name, mu]
    path = dirac.euler_verify
for _module, f in library():  # no cached value hides a call
    if hasattr(f, "cache_clear"):
        f.cache_clear()
reached = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code in names:
        reached.add(names[frame.f_code])


sys.setprofile(profile)
results = [path(pair, mu) for pair, mu in ops]
sys.setprofile(None)
if path is dirac.euler_verify and not all(r.passed for r in results):
    sys.exit("the oracle failed on the sample")
print(json.dumps([len(ops), sorted(reached)]))
"""


@lru_cache(maxsize=None)
def reached(path: str) -> frozenset:
    """The library functions one path reaches over the sample, traced in a
    fresh process."""
    src = Path(dirackernel.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", TRACE, path], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{tests}"},
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    count, names = json.loads(proc.stdout)
    assert count == 62  # the admissible mu of the sample
    return frozenset(names)


# what the two paths may share, each with its reason
BOTT = "Bott's index: the kernel's dimension, the oracle's signed one"
GRID = "the grid of a root system and what it derives once"
STEP = "a grid primitive"
KEYS = "hashing a cache key"
DELTA_H = ("Delta_h^+ as a root system (SymmetricPair.h_system), built "
           "by either path")
PAIR = "pair structure"
SHARED = {
    "characters.weyl_product": BOTT,
    "roots.Grid.root_product": BOTT,
    "roots.Grid.weyl_denominator": BOTT,
    "roots.grid": GRID,
    "roots.Grid.__init__": GRID,
    "roots.Grid.half_sum": GRID,
    "roots.Grid.residues": GRID,
    "roots.Grid.point": STEP,
    "roots.Grid.locate": STEP,
    "roots.Grid.walk": STEP + ": the one walk into the dominant chamber",
    "roots.Grid.is_dominant": STEP,
    "roots.Grid.weight": STEP,
    "lattice.Weight.__new__": "a weight",
    "lattice.LatticeSpec.__eq__": KEYS,
    "lattice.LatticeSpec.__hash__": KEYS,
    "roots.RootSystem.__eq__": KEYS,
    "roots.RootSystem.__hash__": KEYS,
    "roots.RootSystem._hash": KEYS,
    "roots.RootSystem.__init__": DELTA_H,
    "roots.root_sums": DELTA_H,
    "roots._solve": DELTA_H,
    "sympair.SymmetricPair.h_system": PAIR,
    "sympair.SymmetricPair.delta_p_point": PAIR,
    "sympair.SymmetricPair.m": PAIR,
    "sympair.SymmetricPair.rank": PAIR,
}


def test_the_paths_share_only_listed_functions():
    theorem, oracle = reached("theorem"), reached("oracle")
    assert "dirac.dirac_kernel" in theorem and "dirac._extract" in oracle
    assert sorted((theorem & oracle) - set(SHARED)) == []


def test_the_oracle_reads_no_weyl_group_of_the_theorem_path():
    # W_1, its cone search, Weyl elements, and the Weight dominance test
    # the kernel still uses
    oracle = reached("oracle")
    assert sorted(name for name in oracle if name in (
        "sympair.SymmetricPair.w1", "sympair._cone_images",
        "roots.RootSystem.is_dominant")
        or name.startswith("roots.WeylElement.")) == []


def test_the_theorem_path_reads_no_oracle_work():
    # the Casimir sphere, the extraction, the half-spin characters and the
    # weight tables
    theorem = reached("theorem")
    assert sorted(name for name in theorem if name in (
        "dirac._sphere", "dirac._extract", "characters.grid_table")
        or name.startswith("spin.")) == []
