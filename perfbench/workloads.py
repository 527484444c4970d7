"""The inputs of each workload, made from the seed alone.

Run as a script to capture ``cli_goldens.json`` from the current checkout
(``python3 perfbench/workloads.py``); the committed goldens are the output
of the library before any optimisation, and the cli-cold workload requires
byte-identical stdout.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "cli_goldens.json")

# -- theorem-batch -------------------------------------------------------------

# pair -> status -> how many mu to draw, in proportion to the box.  Costs
# cluster by rank (so5 < so7 < so9) and, within a pair, by status: a MINUS
# mu takes one more reflection than a PLUS one, 10% more time on so9_so8.
# Fixed counts per status put p50 inside the so7_so6 PLUS cluster and p90
# inside the so9_so8 MINUS one.  With the statuses left to chance, p90 sat
# on the step between PLUS and MINUS and moved by 8% from seed to seed.
THEOREM_COUNTS = {
    "so5_so4": {"PLUS": 37, "MINUS": 38},
    "so5_so2xso3": {"PLUS": 31, "MINUS": 38, "BOTH_ZERO": 6},
    "so7_so6": {"PLUS": 75, "MINUS": 75},
    "so9_so8": {"PLUS": 50, "MINUS": 50},
}
THEOREM_PAIRS = tuple(THEOREM_COUNTS)
THEOREM_BOX = 12


def theorem_ops(seed: int) -> list:
    """[pair, mu] for admissible mu with lambda uniform in |lambda_i| <= 12
    within each status, in a seeded order."""
    rng = random.Random(seed)
    ops = []
    for name, counts in THEOREM_COUNTS.items():
        rank = spec.PAIRS[name].rank
        wanted = dict(counts)
        while any(wanted.values()):
            lam = [rng.randint(-THEOREM_BOX, THEOREM_BOX) for _ in range(rank)]
            mu = spec.mu_from_lambda(name, lam)
            if not spec.PAIRS[name].admissible(mu):
                continue
            status, _ = spec.kernel_rule(name, mu)
            if wanted[status]:
                wanted[status] -= 1
                ops.append([name, spec.fmt(mu)])
    rng.shuffle(ops)
    return ops


# -- oracle-ladder -------------------------------------------------------------

ORACLE_PAIRS = ("so3_so2", "so5_so4", "so7_so6", "so9_so8", "so5_so2xso3")
# The ROADMAP baseline rows; the 240 s so9_so8 row is left out.
RUNGS = (
    ("so7_so6", "5/2,3/2,1/2"),
    ("so7_so6", "9/2,5/2,1/2"),
    ("so7_so6", "13/2,7/2,3/2"),
    ("so9_so8", "7/2,5/2,3/2,1/2"),
)
# pair -> box on |lambda_i| of the small sample
SAMPLE_BOXES = {"so3_so2": 10, "so5_so4": 4, "so5_so2xso3": 4, "so7_so6": 1,
                "so9_so8": 0}


def oracle_sample() -> list:
    """[pair, mu] for every admissible mu in the boxes (103 of them), pair by
    pair in lexicographic order of lambda, so H-side work is shared through
    the caches.

    The list does not depend on the seed.  Op costs span 1 ms to 0.7 s and
    depend on which earlier op filled a shared cache; a seeded draw or a
    seeded order moved latency_p50_ms and latency_p90_ms by 17-33% between
    seeds, more than any regression bound could allow.
    """
    ops = []
    for name, box in SAMPLE_BOXES.items():
        for lam in itertools.product(range(-box, box + 1),
                                     repeat=spec.PAIRS[name].rank):
            mu = spec.mu_from_lambda(name, lam)
            if spec.PAIRS[name].admissible(mu):
                ops.append([name, spec.fmt(mu)])
    return ops


# -- cli-cold ------------------------------------------------------------------

KERNEL_MU = {
    "so3_so2": "5/2",
    "so5_so4": "9/2,-5/2",
    "so7_so6": "13/2,7/2,3/2",
    "so9_so8": "7/2,5/2,3/2,1/2",
    "so5_so2xso3": "7/2,2",
}

# argv lists that must exit 2 with a one-line error and no traceback
USAGE_ERRORS = (
    ["kernel", "so7_so6", "--mu", "1,0,0"],  # inadmissible mu
    ["kernel", "so7_so6", "--mu", "1,x,0"],  # bad weight string
    ["pair", "show", "so11_so10"],  # unknown pair
)


def cli_ladder() -> list:
    """Every command of the ladder, in text and in machine format."""
    commands = [["pair", "list"]]
    commands += [["pair", "show", name] for name in ORACLE_PAIRS]
    commands += [["spinor", "so9_so8"], ["verify", "chi", "so9_so8"]]
    commands += [["kernel", name, "--mu", mu] for name, mu in KERNEL_MU.items()]
    commands += [
        ["verify", "euler", "so7_so6", "--mu", "9/2,5/2,1/2"],
        ["branch", "so9_so8", "--nu", "3,2,1,1"],
        ["tensor", "B4", "--nu1", "1,1,0,0", "--nu2", "1,1,1,0"],
        ["dim", "B4", "--nu", "5,3,1,0"],
    ]
    commands += [list(argv) for argv in USAGE_ERRORS]
    return commands + [["--format", "machine", *argv] for argv in commands]


def ladder_key(argv: list) -> str:
    return " ".join(argv)


# Runs the CLI exactly as the installed ``dirackernel`` console script does.
CONSOLE = "import sys; from dirackernel.cli import main; sys.exit(main())"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    return env


def write_goldens() -> None:
    goldens = {}
    for argv in cli_ladder():
        proc = subprocess.run([sys.executable, "-c", CONSOLE, *argv],
                              capture_output=True, env=child_env(),
                              timeout=600, check=False)
        goldens[ladder_key(argv)] = {"code": proc.returncode,
                                     "stdout": proc.stdout.decode("utf-8")}
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_goldens()
