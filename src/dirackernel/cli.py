"""Command-line interface.

Subcommands: pair list/show, spinor, kernel, verify euler, verify chi,
branch, tensor, dim.  ``--format machine`` emits a single JSON document
with every rational rendered as a "p/q" string and weights in the same
comma-separated grammar the flags accept; exit codes are 0 for
success/verification pass, 1 for verification failure, 2 for usage or
input errors, which ``run`` maps in one place: every input error is a
``ValueError``.  Output ordering is deterministic everywhere.

Custom pairs load from a JSON file of the shape::

    {"name": "...", "rank": 2,
     "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
     "h_positive_indices": [3],
     "lattice_F_shifts": ["0,0"],
     "lattice_F1_shifts": ["0,0", "1/2,0"]}
"""

from __future__ import annotations

import argparse
import os
import sys
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
    import json  # only here and in ``emit``: not on the import path
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


def emit(doc: dict, machine: bool, lines: list, out) -> None:
    if machine:
        import json
        print(json.dumps(doc, indent=2, sort_keys=False), file=out)
    else:
        for line in lines:
            print(line, file=out)


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


def cmd_pair(args, out) -> int:
    if args.action == "list":
        names = builtin_pair_names()
        doc = {"pairs": names}
        emit(doc, args.format == "machine", names, out)
        return 0
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
    emit(doc, args.format == "machine", lines, out)
    return 0


def cmd_spinor(args, out) -> int:
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
    lines.append("chi+ highest weights: "
                 + ", ".join(str(w) for w in sorted(plus)))
    lines.append("chi- highest weights: "
                 + ", ".join(str(w) for w in sorted(minus)))
    lines.append("trace-difference identity: pass")
    emit(doc, args.format == "machine", lines, out)
    return 0


def cmd_kernel(args, out) -> int:
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
    emit(doc, args.format == "machine", lines, out)
    return 0


def cmd_verify(args, out) -> int:
    pair = resolve_pair(args.pair)
    if args.what == "euler":
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
        for f in report.failures:
            lines.append(f"  FAIL: {f}")
        lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
        emit(doc, args.format == "machine", lines, out)
        return 0 if report.passed else 1
    # verify chi
    failures = []
    details = []
    try:
        plus, minus = chi_decompose(pair)
        details.append("chi split over W1: pass")
    except ConsistencyError as exc:
        failures.append(f"chi split: {exc}")
    try:
        chi_trace_difference(pair)
        details.append("trace-difference identity: pass")
    except ConsistencyError as exc:
        failures.append(f"trace difference: {exc}")
    try:
        scalar = chi_casimir_check(pair)
        details.append(f"Casimir scalar identity: pass (scalar {scalar})")
    except ConsistencyError as exc:
        failures.append(f"Casimir scalar: {exc}")
    try:
        chi_disjointness_check(pair)
        details.append("E+/E- weight disjointness: pass")
    except ConsistencyError as exc:
        failures.append(str(exc))
    passed = not failures
    doc = {"pair": pair.name, "checks": details, "failures": failures,
           "passed": passed}
    lines = [f"chi verification for {pair.name}:"]
    lines += [f"  {d}" for d in details]
    lines += [f"  FAIL: {f}" for f in failures]
    lines.append(f"result: {'PASS' if passed else 'FAIL'}")
    emit(doc, args.format == "machine", lines, out)
    return 0 if passed else 1


def cmd_branch(args, out) -> int:
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
    emit(doc, args.format == "machine", lines, out)
    return 0


def cmd_tensor(args, out) -> int:
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
    emit(doc, args.format == "machine", lines, out)
    return 0


def cmd_dim(args, out) -> int:
    rs, nu = resolve_classical(args.system, args.nu)
    d = weyl_dim(rs, nu)
    doc = {"system": rs.name, "nu": str(nu), "dimension": d}
    emit(doc, args.format == "machine",
         [f"dim of the {rs.name} irreducible with highest weight {nu}: {d}"],
         out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirackernel",
        description="Exact computations around the Dirac operator on "
                    "equal-rank compact symmetric spaces.",
        epilog="Weights are comma-separated rationals, e.g. 3/2,-1/2. "
               "For values starting with '-', use the --flag=value form.")
    parser.add_argument("--format", choices=("text", "machine"),
                        default="text",
                        help="human tables or a single JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pair = sub.add_parser("pair", help="registry and pair structure")
    pair_sub = p_pair.add_subparsers(dest="action", required=True)
    pair_sub.add_parser("list", help="list built-in pairs")
    p_show = pair_sub.add_parser("show", help="roots, deltas, W1, validation")
    p_show.add_argument("pair", help="built-in name or pair file path")

    p_spin = sub.add_parser("spinor", help="spinor weight/parity table")
    p_spin.add_argument("pair")

    p_kernel = sub.add_parser("kernel", help="classify ker D+/ker D-")
    p_kernel.add_argument("pair")
    p_kernel.add_argument("--mu", required=True,
                          help="highest weight for the subgroup cover")

    p_verify = sub.add_parser("verify", help="independent verifications")
    verify_sub = p_verify.add_subparsers(dest="what", required=True)
    p_euler = verify_sub.add_parser(
        "euler", help="alternating-trace oracle over the Casimir shell")
    p_euler.add_argument("pair")
    p_euler.add_argument("--mu", required=True)
    p_chi = verify_sub.add_parser(
        "chi", help="spinor decomposition and Casimir-scalar checks")
    p_chi.add_argument("pair")

    p_branch = sub.add_parser("branch", help="equal-rank restriction")
    p_branch.add_argument("pair")
    p_branch.add_argument("--nu", required=True)

    p_tensor = sub.add_parser("tensor", help="tensor product decomposition")
    p_tensor.add_argument("system", help="classical system, e.g. B2")
    p_tensor.add_argument("--nu1", required=True)
    p_tensor.add_argument("--nu2", required=True)

    p_dim = sub.add_parser("dim", help="Weyl dimension")
    p_dim.add_argument("system", help="classical system, e.g. B2")
    p_dim.add_argument("--nu", required=True)
    return parser


_HANDLERS = {
    "pair": cmd_pair,
    "spinor": cmd_spinor,
    "kernel": cmd_kernel,
    "verify": cmd_verify,
    "branch": cmd_branch,
    "tensor": cmd_tensor,
    "dim": cmd_dim,
}


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _HANDLERS[args.command](args, out)
    except (ValueError, GroupOrderLimitError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
