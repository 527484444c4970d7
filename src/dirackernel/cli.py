"""Command-line interface.

``_COMMANDS`` holds each command's syntax, handler and help line: argv is
parsed and ``--help`` printed from it.  A handler computes and prints
nothing: it returns ``(doc, lines)``, a JSON-ready document with every
rational as a "p/q" string and weights in the comma-separated grammar the
flags accept, and its text lines.  ``run`` renders: the document under
``--format machine``, else the lines.  It also maps every input error,
usage included, a ``ValueError`` each, to one ``error:`` line on stderr and
exit 2.  A ``ConsistencyError`` becomes one ``internal consistency error:``
line on stderr in text, and under ``--format machine`` the document
``{"error": <that line>, "passed": false}``.  The exit status is read from
the document: 1 exactly when it says ``"passed": false``, else 0; a text
consistency error exits 1 too.  Output order is deterministic everywhere.

Custom pairs load from a JSON file of the shape::

    {"name": "...", "rank": 2,
     "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
     "h_positive_indices": [3],
     "lattice_F_shifts": ["0,0"],
     "lattice_F1_shifts": ["0,0", "1/2,0"]}
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Optional

from .characters import branch_equal_rank, tensor, weyl_dim
from .dirac import KernelStatus, chi_casimir_check, dirac_kernel, euler_verify
from .errors import ConsistencyError, GroupOrderLimitError
from .lattice import LatticeSpec, Weight
from .roots import RootSystem, build_classical, classical_dimension
from .spin import (chi_decompose, chi_disjointness_check, chi_trace_difference,
                   spinor_weights)
from .sympair import (PAIR_CHECKS, SymmetricPair, builtin_pair,
                      builtin_pair_names)


class CliError(ValueError):
    """Usage-level error: message printed to stderr, exit code 2."""


def _field(data: dict, key: str, kind: type):
    """data[key], which must be a JSON value of the given kind: an int
    (not a bool, which Python counts as one) or a list."""
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise TypeError(f"{key} must be a JSON "
                        f"{'integer' if kind is int else 'list'}, "
                        f"got {value!r}")
    return value


def load_pair_file(path: str) -> SymmetricPair:
    import json  # not on the import path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read pair file {path}: "
                       f"{exc.strerror or exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot parse pair file {path}: {exc}") from None
    try:
        if not isinstance(data, dict):
            raise TypeError("the top level must be a JSON object")
        rank = _field(data, "rank", int)
        roots = [Weight.parse(s) for s in _field(data, "positive_roots", list)]
        indices = _field(data, "h_positive_indices", list)
        f_shifts = [Weight.parse(s)
                    for s in _field(data, "lattice_F_shifts", list)]
        f1_shifts = [Weight.parse(s)
                     for s in _field(data, "lattice_F1_shifts", list)]
        name = data.get("name", os.path.basename(path))
        if not isinstance(name, str):
            raise TypeError(f"name must be a JSON string, got {name!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad pair file {path}: {exc}") from None
    # bool is a subclass of int, so true would otherwise read as index 1
    if any(not isinstance(i, int) or isinstance(i, bool) for i in indices):
        raise CliError("h_positive_indices must be integers")
    if any(not 0 <= i < len(roots) for i in indices):
        raise CliError("h_positive_indices out of range")
    try:
        rs = RootSystem(rank, roots, name=name)
        pair = SymmetricPair(
            rs, tuple(roots[i] for i in indices),
            lattice_F=LatticeSpec(rank, f_shifts),
            lattice_F1=LatticeSpec(rank, f1_shifts),
            name=name)
    except ValueError as exc:
        raise CliError(f"bad pair file {path}: {exc}") from None
    return pair


def resolve_pair(token: str) -> SymmetricPair:
    if token in builtin_pair_names():
        return builtin_pair(token)
    if os.path.exists(token):
        return load_pair_file(token)
    raise CliError(f"unknown pair {token!r}; built-ins: "
                   + ", ".join(builtin_pair_names()))


def parse_weight(token: str, rank: Optional[int] = None) -> Weight:
    w = Weight.parse(token)
    if rank is not None and len(w) != rank:
        raise CliError(f"weight {token!r} has {len(w)} coordinates, "
                       f"expected {rank}")
    return w


def resolve_classical(token: str, *weights: str) -> tuple:
    """The classical system a token such as B2 names, then the weights;
    their lengths are checked before the system is built."""
    family, digits = token[:1], token[1:]
    # str.isdigit also accepts superscripts and other scripts' digits
    if (family.upper() not in "ABCD" or not digits.isascii()
            or not digits.isdigit()):
        raise CliError(f"bad root-system token {token!r}; expected e.g. B2")
    n = classical_dimension(family, int(digits))
    parsed = [parse_weight(w, n) for w in weights]
    return build_classical(family, int(digits)), *parsed


def _pair_doc(pair: SymmetricPair) -> dict:
    w1 = pair.w1  # checks |W| = |W_H| * |W_1|, W_1 from the cone search
    return {
        "name": pair.name,
        "rank": pair.rank,
        "positive_roots": [str(a) for a in pair.root_system.positive_roots],
        "h_positive": [str(a) for a in pair.h_positive],
        "p_positive": [str(a) for a in pair.p_positive],
        "m": pair.m,
        "dim_p": 2 * pair.m,
        "delta": str(pair.delta),
        "delta_h": str(pair.delta_h),
        "delta_p": str(pair.delta_p),
        "lattice_F_shifts": [str(s) for s in pair.lattice_F.sorted_shifts()],
        "lattice_F1_shifts": [str(s) for s in pair.lattice_F1.sorted_shifts()],
        "weyl_order": pair.weyl_h_order * len(w1),
        "weyl_h_order": pair.weyl_h_order,
        "w1": [{"delta_p_sigma": str(x.delta_p_sigma), "sign": x.sign,
                "word": list(x.element.word)} for x in w1],
        # a pair that exists has passed every check
        "validation": [{"check": name, "passed": True, "detail": ""}
                       for name in PAIR_CHECKS],
        "valid": True,
    }


def cmd_pair_list(args) -> tuple:
    names = builtin_pair_names()
    return {"pairs": names}, names


def cmd_pair_show(args) -> tuple:
    pair = resolve_pair(args.pair)
    doc = _pair_doc(pair)
    lines = [
        f"pair {doc['name']} (rank {doc['rank']}, m={doc['m']}, "
        f"dim p = {doc['dim_p']})",
        "positive roots: " + "  ".join(doc["positive_roots"]),
        "h roots:        " + ("  ".join(doc["h_positive"]) or "(none)"),
        "p roots:        " + "  ".join(doc["p_positive"]),
        f"delta   = {doc['delta']}",
        f"delta_h = {doc['delta_h']}",
        f"delta_p = {doc['delta_p']}",
        f"F shifts:  {', '.join(doc['lattice_F_shifts'])}",
        f"F1 shifts: {', '.join(doc['lattice_F1_shifts'])}",
        f"|W| = {doc['weyl_order']}  |W_H| = {doc['weyl_h_order']}  "
        f"|W1| = {len(doc['w1'])}",
        "W1 (delta_p^sigma, sign): "
        + "  ".join(f"({x['delta_p_sigma']}, {x['sign']:+d})"
                    for x in doc["w1"]),
    ]
    lines += [f"check {name}: pass" for name in PAIR_CHECKS]
    return doc, lines


def cmd_spinor(args) -> tuple:
    pair = resolve_pair(args.pair)
    sw = spinor_weights(pair)
    plus, minus = chi_decompose(pair)
    chi_trace_difference(pair)  # raises on identity failure
    doc = {
        "pair": pair.name,
        "entries": [{"epsilon": list(e.epsilon), "weight": str(e.weight),
                     "parity": e.parity} for e in sw.entries],
        "chi_plus": [str(w) for w in sorted(plus)],
        "chi_minus": [str(w) for w in sorted(minus)],
        "trace_difference_identity": "pass",
    }
    lines = [f"spinor weights of {pair.name} (one per sign vector over "
             f"Delta_p^+):"]
    for e in sw.entries:
        eps = "".join("+" if x == 1 else "-" for x in e.epsilon)
        side = "E+" if e.parity == 1 else "E-"
        lines.append(f"  {eps}  {e.weight}  {side}")
    lines += ["chi+ highest weights: " + ", ".join(doc["chi_plus"]),
              "chi- highest weights: " + ", ".join(doc["chi_minus"]),
              "trace-difference identity: pass"]
    return doc, lines


def cmd_kernel(args) -> tuple:
    pair = resolve_pair(args.pair)
    mu = parse_weight(args.mu, pair.rank)
    result = dirac_kernel(pair, mu)
    doc = {
        "pair": pair.name,
        "mu": str(mu),
        "lambda": str(mu - pair.delta_p),
        "status": result.status.value,
        "casimir": str(result.casimir),
    }
    lines = [f"kernel of the Dirac operator on {pair.name} twisted by "
             f"mu = {mu}:"]
    if result.status is KernelStatus.BOTH_ZERO:
        lines.append("  ker D+ = ker D- = 0 (lambda + delta is singular)")
    else:
        doc.update({
            "nu": str(result.nu),
            "sigma_sign": result.sigma_sign,
            "sigma_word": list(result.sigma.word),
            "dimension": result.dimension,
        })
        side = "D+" if result.status is KernelStatus.PLUS else "D-"
        other = "D-" if result.status is KernelStatus.PLUS else "D+"
        lines.append(f"  ker {side} carries the irreducible with highest "
                     f"weight nu = {result.nu} (dim {result.dimension})")
        lines.append(f"  ker {other} = 0")
        lines.append(f"  sigma sign {result.sigma_sign:+d}, Casimir scalar "
                     f"{result.casimir}")
    return doc, lines


def cmd_euler(args) -> tuple:
    pair = resolve_pair(args.pair)
    mu = parse_weight(args.mu, pair.rank)
    report = euler_verify(pair, mu)
    doc = {
        "pair": pair.name,
        "mu": str(mu),
        "lambda": str(report.lam),
        "kernel_status": report.kernel.status.value,
        "shell": [{"nu": str(r.nu), "dim": r.dimension,
                   "mult_plus": r.mult_plus, "mult_minus": r.mult_minus}
                  for r in report.rows],
        "signed_sum": [[str(w), c] for w, c in report.signed_sum],
        "expected": [[str(w), c] for w, c in report.expected],
        "failures": list(report.failures),
        "passed": report.passed,
    }
    lines = [f"euler-characteristic check for {pair.name}, mu = {mu} "
             f"(lambda = {report.lam}):"]
    if not report.rows:
        lines.append("  Casimir shell is empty")
    for r in report.rows:
        lines.append(f"  nu = {r.nu}  dim {r.dimension}  "
                     f"m+ = {r.mult_plus}  m- = {r.mult_minus}")
    lines.append(f"  signed sum: "
                 + (" + ".join(f"{c:+d}[{w}]" for w, c in report.signed_sum)
                    or "0"))
    lines.append(f"  classification: {report.kernel.status.value}")
    lines += [f"  FAIL: {f}" for f in report.failures]
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return doc, lines


def cmd_chi(args) -> tuple:
    pair = resolve_pair(args.pair)
    checks, failures = [], []
    # each check, its pass line (given what it returns), its failure's prefix
    for check, passed, prefix in (
            (chi_decompose, "chi split over W1: pass", "chi split: "),
            (chi_trace_difference, "trace-difference identity: pass",
             "trace difference: "),
            (chi_casimir_check, "Casimir scalar identity: pass (scalar {})",
             "Casimir scalar: "),
            (chi_disjointness_check, "E+/E- weight disjointness: pass", "")):
        try:
            checks.append(passed.format(check(pair)))
        except ConsistencyError as exc:
            failures.append(f"{prefix}{exc}")
    doc = {"pair": pair.name, "checks": checks, "failures": failures,
           "passed": not failures}
    lines = [f"chi verification for {pair.name}:"]
    lines += [f"  {c}" for c in checks] + [f"  FAIL: {f}" for f in failures]
    lines.append(f"result: {'FAIL' if failures else 'PASS'}")
    return doc, lines


def cmd_branch(args) -> tuple:
    pair = resolve_pair(args.pair)
    nu = parse_weight(args.nu, pair.rank)
    result = branch_equal_rank(pair, nu)
    doc = {
        "pair": pair.name,
        "nu": str(nu),
        "dimension": weyl_dim(pair.root_system, nu),
        "components": [[str(w), m] for w, m in sorted(result.items())],
    }
    lines = [f"restriction of the irreducible with highest weight {nu} "
             f"(dim {doc['dimension']}) to the subgroup of {pair.name}:"]
    for w, m in sorted(result.items()):
        lines.append(f"  [{w}] x {m}  (dim {weyl_dim(pair.h_system, w)})")
    return doc, lines


def cmd_tensor(args) -> tuple:
    rs, nu1, nu2 = resolve_classical(args.system, args.nu1, args.nu2)
    result = tensor(rs, nu1, nu2)
    doc = {
        "system": rs.name,
        "nu1": str(nu1),
        "nu2": str(nu2),
        "components": [[str(w), m] for w, m in sorted(result.items())],
    }
    lines = [f"tensor product decomposition in {rs.name}: "
             f"[{nu1}] x [{nu2}] ="]
    for w, m in sorted(result.items()):
        lines.append(f"  [{w}] x {m}  (dim {weyl_dim(rs, w)})")
    return doc, lines


def cmd_dim(args) -> tuple:
    rs, nu = resolve_classical(args.system, args.nu)
    d = weyl_dim(rs, nu)
    doc = {"system": rs.name, "nu": str(nu), "dimension": d}
    return doc, [f"dim of the {rs.name} irreducible with highest weight "
                 f"{nu}: {d}"]


# One row per command: its syntax (its words, then each required <positional>
# and --flag <value>), its handler and its help line, read by _parse and _help.
_COMMANDS = (
    ("pair list", cmd_pair_list, "built-in pairs"),
    ("pair show <pair>", cmd_pair_show, "roots, deltas, W1 table, validation"),
    ("spinor <pair>", cmd_spinor, "spinor weight/parity table, chi+/- split"),
    ("kernel <pair> --mu <weight>", cmd_kernel, "classify ker D+ / ker D-"),
    ("verify euler <pair> --mu <weight>", cmd_euler, "oracle over the shell"),
    ("verify chi <pair>", cmd_chi, "chi+/- split, trace, Casimir checks"),
    ("branch <pair> --nu <weight>", cmd_branch, "equal-rank restriction"),
    ("tensor <system> --nu1 <w> --nu2 <w>", cmd_tensor, "tensor product"),
    ("dim <system> --nu <weight>", cmd_dim, "Weyl dimension"),
)


def _help(args) -> tuple:
    width = max(len(syntax) for syntax, _, _ in _COMMANDS)
    return {}, ["dirackernel [--format text|machine] <command> ...", "", *(
        f"  {syntax:<{width}}  {text}" for syntax, _, text in args.rows)]


def _parse(argv) -> SimpleNamespace:
    """The format, the handler, and the positionals and flags of a command
    line under the names the handlers read; -h or --help after the format
    selects ``_help``, printed as text.  A usage error, a repeated flag
    included, raises CliError."""
    rest = []
    for token in argv:  # --flag=value as --flag value: a value is one token
        rest += token.split("=", 1) if token.startswith("--") else [token]
    fmt = "text"
    if rest[:1] == ["--format"]:
        fmt, rest = "".join(rest[1:2]), rest[2:]
    if fmt not in ("text", "machine"):
        raise CliError(f"--format takes text or machine, not {fmt!r}")
    heads = [[t for t in s.split() if t[0] not in "<-"] for s, *_ in _COMMANDS]
    words = []
    while rest and words + rest[:1] in (h[:len(words) + 1] for h in heads):
        words.append(rest.pop(0))
    rows = [row for row, h in zip(_COMMANDS, heads) if h[:len(words)] == words]
    if {"-h", "--help"} & set(rest):
        return SimpleNamespace(format="text", handler=_help, rows=rows)
    if words not in heads:
        expected = dict.fromkeys(" ".join(h[:len(words) + 1]) for h in heads
                                 if h[:len(words)] == words)
        got = repr(rest[0]) if rest else "nothing"
        raise CliError(f"expected {' | '.join(expected)}, got {got}")
    syntax, handler, _ = rows[0]
    head, *tail = syntax.split(" --")
    names = [t[1:-1] for t in head.split()[len(words):]]
    flags = ["--" + t.split()[0] for t in tail]
    values, given = {}, []  # the positionals, and anything else
    while rest:
        token = rest.pop(0)
        if token in flags and rest and token[2:] not in values:
            values[token[2:]] = rest.pop(0)
        else:
            given.append(token)
    if len(given) != len(names) or len(values) != len(flags):
        raise CliError(f"usage: dirackernel {syntax}")
    return SimpleNamespace(format=fmt, handler=handler,
                           **dict(zip(names, given)), **values)


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(argv)
        doc, lines = args.handler(args)
    except (ValueError, GroupOrderLimitError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except ConsistencyError as exc:
        message = f"internal consistency error: {exc}"
        if args.format == "text":
            print(message, file=err)
            return 1
        doc = {"error": message, "passed": False}
    if args.format == "machine":
        import json
        print(json.dumps(doc, indent=2), file=out)
    else:
        out.writelines(f"{line}\n" for line in lines)
    return 1 if doc.get("passed") is False else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
