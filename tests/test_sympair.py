import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dirackernel.roots as roots
from corpus import CORPUS, W1_PAIRS, corpus_pair
from dirackernel.cli import run
from dirackernel.dirac import chi_casimir_check
from dirackernel.errors import (ConsistencyError, GroupOrderLimitError,
                                InvalidPairError)
from dirackernel.lattice import LatticeSpec, Weight
from dirackernel.roots import (RootSystem, WeylElement, build_classical, grid,
                               orbit, weyl_order)
from dirackernel.spin import (chi_decompose, chi_trace_difference,
                              spinor_counts)
from dirackernel.sympair import (PAIR_CHECKS, SymmetricPair,
                                 admissibility_failures, admissible_mu,
                                 builtin_pair, builtin_pair_names,
                                 _check_torus_lattice, marked_node_pair,
                                 validate_pair, w1_enumerate)
from reference_oracle import checked_euler
from reference_roots import (W, act, admissible_box, deltas,
                             half_c2_pair, integers_and_half_integers,
                             listed_group, quarter_delta_pair,
                             reference_contains, reference_is_integral,
                             reference_pair_failures, reference_w1,
                             reference_w_stable)


def b2_pair(h_roots, name="test"):
    rs = build_classical("B", 2)
    return SymmetricPair(
        rs, tuple(W(r) for r in h_roots),
        lattice_F=LatticeSpec.integers(2),
        lattice_F1=integers_and_half_integers(2),
        name=name)


class TestValidate:
    def test_so5_so4_all_pass(self):
        pair = b2_pair(["1,-1", "1,1"])
        assert validate_pair(pair) is None
        assert pair.m == 2

    def test_so5_so2xso3_all_pass(self):
        pair = b2_pair(["0,1"])
        assert validate_pair(pair) is None
        assert pair.m == 3

    def test_bad_split_fails_closure(self):
        with pytest.raises(InvalidPairError, match="bracket_grading"):
            b2_pair(["1,-1"])

    def test_empty_h_is_allowed_for_rank_one(self):
        rs = build_classical("B", 1)
        pair = SymmetricPair(
            rs, (), LatticeSpec.integers(1),
            integers_and_half_integers(1), name="b1")
        assert validate_pair(pair) is None

    def test_h_equal_g_is_rejected(self):
        with pytest.raises(InvalidPairError, match="p_nonempty"):
            b2_pair(["1,-1", "1,1", "1,0", "0,1"])

    def test_invalid_pair_blocks_derived_ops(self):
        # an invalid pair cannot be constructed, so no derived op sees one
        with pytest.raises(InvalidPairError,
                           match="pair 'split' fails validation"):
            b2_pair(["1,-1"], name="split")

    def test_lattice_containment_check(self):
        rs = build_classical("B", 2)
        with pytest.raises(InvalidPairError, match="lattice_containment"):
            SymmetricPair(
                rs, (W("1,-1"), W("1,1")),
                lattice_F=integers_and_half_integers(2),
                lattice_F1=LatticeSpec.integers(2),
                name="bad_lattices")

    def test_one_error_names_every_failed_check_in_order(self):
        # h = all of B2 leaves p empty, and F = Z^2 u (Z + 1/2)^2 is not
        # inside F1 = Z^2
        rs = build_classical("B", 2)
        with pytest.raises(InvalidPairError) as raised:
            SymmetricPair(rs, rs.positive_roots,
                          lattice_F=integers_and_half_integers(2),
                          lattice_F1=LatticeSpec.integers(2), name="b2_all")
        assert str(raised.value) == (
            "pair 'b2_all' fails validation: p_nonempty: Delta_p^+ is empty "
            "(h equals the full algebra); lattice_containment: F is not "
            "contained in F1")

    def test_pair_show_prints_the_checks(self):
        # a pair that exists has passed every check, and pair show lists
        # them all, in the order validate_pair runs them
        assert PAIR_CHECKS == ("p_nonempty", "bracket_grading",
                               "p_level_parity", "lattice_containment")
        text, machine = io.StringIO(), io.StringIO()
        assert run(["pair", "show", "so5_so4"], text) == 0
        assert run(["--format", "machine", "pair", "show", "so5_so4"],
                   machine) == 0
        checks = [line for line in text.getvalue().splitlines()
                  if line.startswith("check ")]
        assert checks == [f"check {name}: pass" for name in PAIR_CHECKS]
        doc = json.loads(machine.getvalue())
        assert doc["validation"] == [
            {"check": name, "passed": True, "detail": ""}
            for name in PAIR_CHECKS]
        assert doc["valid"] is True

    @pytest.mark.parametrize("family,rank,draws", [
        ("B", 2, None), ("C", 2, None), ("A", 3, None),
        ("B", 3, 200), ("D", 4, 200)])
    def test_validation_matches_fraction_reference(self, family, rank, draws):
        # every subset of Delta^+ as h (draws=None), or seeded random ones:
        # the grid checks raise the message of the Fraction checks, or none
        rs = build_classical(family, rank)
        roots = rs.positive_roots
        if draws is None:
            subsets = [[a for a, keep in zip(roots, mask) if keep] for mask
                       in itertools.product((0, 1), repeat=len(roots))]
        else:
            rng = random.Random(f"{family}{rank}")
            subsets = [[a for a in roots if rng.random() < 0.5]
                       for _ in range(draws)]
        F = LatticeSpec.integers(rs.rank)
        F1 = integers_and_half_integers(rs.rank)
        raised = 0
        for h in subsets:
            failures = reference_pair_failures(rs, h, F, F1)
            expected = ("pair 'subset' fails validation: "
                        + "; ".join(failures)) if failures else None
            try:
                SymmetricPair(rs, h, F, F1, name="subset")
                got = None
            except InvalidPairError as exc:
                got = str(exc)
            assert got == expected, [str(a) for a in h]
            raised += got is not None
        assert raised

    def test_F_must_be_integral_for_G(self):
        # (1/2,1/2) is integral for B2 (above) but pairs to 1/2 with the
        # coroot (0,1) of the C2 simple root (0,2)
        rs = build_classical("C", 2)
        half = integers_and_half_integers(2)
        with pytest.raises(ValueError, match="F shift 1/2,1/2 is not integral"):
            SymmetricPair(rs, (W("1,-1"),), half, half, name="c2_half")


    def test_F_must_be_W_stable(self):
        # F4: every e_k is integral, but F = Z^4 misses the simple root
        # (1/2)(1,-1,-1,-1), and so is not W-stable: the reflection in it
        # moves e_1 into (Z + 1/2)^4
        half = Fraction(1, 2)
        e = [Weight.basis(4, k) for k in range(4)]
        roots = ([e[i] - e[j] for i in range(4) for j in range(i + 1, 4)]
                 + [e[i] + e[j] for i in range(4) for j in range(i + 1, 4)]
                 + e + [Weight([half, *signs]) for signs in
                        itertools.product((half, -half), repeat=3)])
        rs = RootSystem(4, roots, name="F4")
        with pytest.raises(ValueError, match=re.escape(
                "F misses the simple root 1/2,-1/2,-1/2,-1/2 of "
                "RootSystem(F4, 24 positive roots)")):
            marked_node_pair(rs, 3, "f4_spin9")

    @pytest.mark.parametrize("make,F,root", [
        (half_c2_pair, LatticeSpec.integers(2), "1/2,-1/2"),
        (quarter_delta_pair, integers_and_half_integers(2), "0,1/2")],
        ids=["c2_half", "b2_half"])
    def test_F_must_hold_the_roots(self, make, F, root):
        # each test pair on an F that is an integral W-stable group but
        # misses a root: nu = w(lambda + delta) - delta differs from lambda
        # by roots, so it would leave F
        pair = make()
        rs = pair.root_system
        with pytest.raises(ValueError, match=re.escape(
                f"F misses the simple root {root} of {rs}")):
            SymmetricPair(rs, pair.h_positive, F, pair.lattice_F1,
                          name=pair.name)
        assert reference_w_stable(rs, F)

    def test_torus_lattice_rule_over_every_shift_set(self):
        # every F = Z^rank + S for a set S of {0, 1/2}^rank holding 0: the
        # rule accepts F exactly when it is integral, a group and holds
        # each simple root, and every F it accepts is W-stable (the
        # reference scan); the integral W-stable groups it refuses all
        # miss a root of a system scaled by 1/2
        half = Fraction(1, 2)
        systems = {name: build_classical(name[0], int(name[1]))
                   for name in ("A1", "A2", "B1", "B2", "B3", "C2", "C3",
                                "D3")}
        systems["A1xA1"] = RootSystem(2, [W("1,0"), W("0,1")])
        systems["A1xA1_half"] = RootSystem(2, [W("1/2,0"), W("0,1/2")])
        for make in (half_c2_pair, quarter_delta_pair):
            pair = make()
            systems[pair.name] = pair.root_system
        refused_stable = set()
        for name, rs in systems.items():
            zero, *rest = itertools.product((0, half), repeat=rs.rank)
            generators = [Weight.basis(rs.rank, k) for k in range(rs.rank)]
            for mask in itertools.product((False, True), repeat=len(rest)):
                shifts = [Weight(zero)] + [Weight(s) for s, keep
                                           in zip(rest, mask) if keep]
                F = LatticeSpec(rs.rank, shifts)
                try:
                    _check_torus_lattice(rs, F)
                    accepted = True
                except ValueError:
                    accepted = False
                integral_group = (all(reference_is_integral(rs, x)
                                      for x in shifts + generators)
                                  and all(reference_contains(F, x + y)
                                          for x in shifts for y in shifts))
                holds = all(reference_contains(F, a) for a in rs.simple_roots)
                stable = reference_w_stable(rs, F)
                case = (name, [str(x) for x in shifts])
                assert accepted == (integral_group and holds), case
                assert stable or not accepted, case
                if integral_group and stable and not accepted:
                    refused_stable.add(name)
        assert refused_stable == {"A1xA1_half", "c2_half", "b2_half"}

    def test_F_must_be_a_group(self):
        # A1 x A1: both half-shifts are integral and W-stable, their sum
        # 1/2,1/2 is not in F
        rs = RootSystem(2, [W("1,0"), W("0,1")])
        F = LatticeSpec(2, [W("0,0"), W("1/2,0"), W("0,1/2")])
        F1 = LatticeSpec(2, [W("0,0"), W("1/2,0"), W("0,1/2"),
                             W("1/2,1/2")])
        with pytest.raises(ValueError, match="F is not a group: "
                                             "0,1/2 \\+ 1/2,0"):
            SymmetricPair(rs, (W("1,0"),), F, F1, name="a1a1")
        both = LatticeSpec(2, [W("0,0"), W("1/2,0"), W("0,1/2"),
                               W("1/2,1/2")])
        assert SymmetricPair(rs, (W("1,0"),), both, both).m == 1


class TestW1:
    def test_so3_so2(self):
        pair = builtin_pair("so3_so2")
        w1 = w1_enumerate(pair)
        assert len(w1) == 2
        assert sorted(x.sign for x in w1) == [-1, 1]
        assert {x.delta_p_sigma for x in w1} == {W("1/2"), W("-1/2")}

    def test_so5_so4(self):
        pair = builtin_pair("so5_so4")
        w1 = w1_enumerate(pair)
        assert {x.delta_p_sigma for x in w1} == {W("1/2,1/2"), W("1/2,-1/2")}
        by_weight = {x.delta_p_sigma: x for x in w1}
        assert by_weight[W("1/2,1/2")].sign == 1
        assert by_weight[W("1/2,-1/2")].sign == -1

    def test_so5_so2xso3_has_four(self):
        pair = builtin_pair("so5_so2xso3")
        w1 = w1_enumerate(pair)
        assert len(w1) == 4
        assert {x.delta_p_sigma for x in w1} == {
            W("3/2,0"), W("-3/2,0"), W("1/2,1"), W("-1/2,1")}

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_grid_filter_matches_fraction_reference(self, pair):
        # the orbit of D delta on the grid, filtered by strict
        # Delta_h-dominance, against the Fraction filter of weyl_group:
        # the same elements with the same words, in the same order
        def rows(w1):
            return [(x.element.word, x.element.image, x.sign,
                     x.delta_p_sigma) for x in w1]

        assert rows(pair.w1) == rows(reference_w1(pair))

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_w1_lists_no_orbit(self, pair, monkeypatch):
        # a fresh copy of the pair finds W_1 and |W_H| with every orbit
        # unusable, and matches the Fraction filter of the listed group
        def rows(w1):
            return [(x.element.word, x.element.image, x.sign,
                     x.delta_p_sigma) for x in w1]

        reference = rows(reference_w1(pair))
        h_order = len(listed_group(pair.h_system))

        def unusable(*_args, **_kwargs):
            raise AssertionError("listed an orbit")

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("dirackernel")
                    and getattr(module, "orbit", None) is orbit):
                monkeypatch.setattr(module, "orbit", unusable)
        fresh = SymmetricPair(pair.root_system, pair.h_positive,
                              pair.lattice_F, pair.lattice_F1, pair.name)
        assert rows(fresh.w1) == reference
        assert fresh.weyl_h_order == h_order

    def test_b7_node6_without_listing_w(self):
        # so(15)/so(14): |W| = 645,120, but W_1 has two elements
        start = time.perf_counter()
        pair = marked_node_pair(build_classical("B", 7), 6, "so15_so14")
        w1 = pair.w1
        elapsed = time.perf_counter() - start
        assert (pair.weyl_h_order, len(w1),
                weyl_order(pair.root_system)) == (322560, 2, 645120)
        assert elapsed < 1

    def test_w1_over_the_limit_fails_before_listing(self):
        # A22 node 11: |W_1| = C(23, 12) = 1,352,078 is refused from the
        # exponents, before the search
        pair = marked_node_pair(build_classical("A", 22), 11, "a22_node11")
        start = time.perf_counter()
        with pytest.raises(GroupOrderLimitError, match=re.escape(
                "|W_1| = 1352078 exceeds limit 1000000")):
            pair.w1
        assert time.perf_counter() - start < 1

    def test_w1_count_check(self, monkeypatch, tmp_path):
        # one chamber of the cone dropped: |W| = |W_H| * |W_1| fails on a
        # fresh pair, and ``pair show`` on that pair's file exits 2
        import dirackernel.sympair as sympair

        images = sympair._cone_images
        monkeypatch.setattr(sympair, "_cone_images",
                            lambda g, h: set(sorted(images(g, h))[1:]))
        message = "|W| = 8 != |W_H| * |W_1| = 4 * 1"
        with pytest.raises(InvalidPairError) as raised:
            b2_pair(["1,-1", "1,1"]).w1
        assert str(raised.value) == message
        path = tmp_path / "so5_so4.json"
        path.write_text(json.dumps({
            "name": "so5_so4", "rank": 2,
            "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
            "h_positive_indices": [0, 1], "lattice_F_shifts": ["0,0"],
            "lattice_F1_shifts": ["0,0", "1/2,1/2"]}))
        for fmt in ("text", "machine"):
            out, err = io.StringIO(), io.StringIO()
            code = run(["--format", fmt, "pair", "show", str(path)], out, err)
            assert (code, out.getvalue(), err.getvalue()) == (
                2, "", f"error: {message}\n")

    @pytest.mark.parametrize("pair", W1_PAIRS, ids=lambda p: p.name)
    def test_weyl_h_order_counts_the_listed_group(self, pair):
        # the orbit of D delta_h on the grid against W_H listed as a group,
        # and the product of the two counts against W listed as a group
        assert pair.weyl_h_order == len(listed_group(pair.h_system))
        assert len(listed_group(pair.root_system)) == (
            pair.weyl_h_order * len(pair.w1))

    def test_sigma_image_of_positive_roots(self):
        # sigma(Delta+) = Delta_h+ together with Delta_p+ up to signs, and
        # sgn(sigma) counts the flipped signs.
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            pos = list(pair.root_system.positive_roots)
            p_set = set(pair.p_positive)
            h_set = set(pair.h_positive)
            for x in w1_enumerate(pair):
                image = [act(x.element, a) for a in pos]
                flipped = 0
                for beta in image:
                    if beta in h_set:
                        continue
                    if beta in p_set:
                        continue
                    assert -beta in p_set, beta
                    flipped += 1
                assert h_set <= set(image)
                assert x.sign == (-1) ** flipped

    def test_delta_p_sigma_from_flipped_roots(self):
        # second derivation: half-sum of sigma(Delta+) minus Delta_h+
        for name in builtin_pair_names():
            pair = builtin_pair(name)
            for x in w1_enumerate(pair):
                image = [act(x.element, a)
                         for a in pair.root_system.positive_roots]
                p_sigma = [b for b in image if b not in set(pair.h_positive)]
                half = sum(p_sigma, Weight.zero(pair.rank)) * Fraction(1, 2)
                assert half == x.delta_p_sigma


class TestDeltas:
    def test_so3_so2(self):
        pair = builtin_pair("so3_so2")
        d, dh, dp = deltas(pair)
        assert (d, dh, dp) == (W("1/2"), W("0"), W("1/2"))

    def test_so5_so4(self):
        d, dh, dp = deltas(builtin_pair("so5_so4"))
        assert (d, dh, dp) == (W("3/2,1/2"), W("1,0"), W("1/2,1/2"))

    def test_so5_so2xso3(self):
        d, dh, dp = deltas(builtin_pair("so5_so2xso3"))
        assert dp == W("3/2,0")
        assert dh == W("0,1/2")

    def test_delta_splits(self):
        for name in builtin_pair_names():
            d, dh, dp = deltas(builtin_pair(name))
            assert d == dh + dp

    def test_broken_split_raises(self, monkeypatch):
        pair = builtin_pair("so5_so4")
        monkeypatch.setitem(vars(pair), "delta_h", W("1,1"))
        with pytest.raises(ConsistencyError, match="delta_h"):
            deltas(pair)


class TestAdmissibility:
    def test_so5_so4_admissible(self):
        pair = builtin_pair("so5_so4")
        assert admissible_mu(pair, W("3/2,-1/2"))

    def test_so5_so4_not_h_dominant(self):
        pair = builtin_pair("so5_so4")
        assert not admissible_mu(pair, W("1/2,3/2"))
        assert admissibility_failures(pair, W("1/2,3/2")) == [
            "mu not dominant for Delta_h+"]

    def test_so3_so2_half_integers(self):
        pair = builtin_pair("so3_so2")
        assert admissible_mu(pair, W("5/2"))
        assert not admissible_mu(pair, W("2"))
        assert admissibility_failures(pair, W("2")) == ["mu - delta_p not in F"]

    def test_so5_so2xso3_mixed_class(self):
        pair = builtin_pair("so5_so2xso3")
        assert admissible_mu(pair, W("3/2,1"))
        assert not admissible_mu(pair, W("1,1/2"))


class TestRegistry:
    def test_names(self):
        assert builtin_pair_names() == [
            "so3_so2", "so5_so4", "so7_so6", "so9_so8", "so5_so2xso3"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_pair("so11_so10")

    def test_all_builtins_validate(self):
        for name in builtin_pair_names():
            assert validate_pair(builtin_pair(name)) is None

    def test_one_grid_per_system_and_scale(self):
        # a cold process that builds every built-in pair, its W_1 and one
        # oracle run makes one Grid per (system, scale): the four G
        # systems and the five subgroups, whose default scale is G's; and
        # one RootSystem per system, so5_so4 and so5_so2xso3 sharing B2
        code = textwrap.dedent("""\
            import dirackernel.roots as roots
            made, systems = [], []
            init = roots.Grid.__init__
            def counted(self, rs, scale):
                made.append((rs, scale))
                init(self, rs, scale)
            roots.Grid.__init__ = counted
            build = roots.RootSystem.__init__
            def built(self, *args, **kwargs):
                build(self, *args, **kwargs)
                systems.append(self)
            roots.RootSystem.__init__ = built
            from dirackernel import (builtin_pair, builtin_pair_names,
                                     euler_verify)
            for name in builtin_pair_names():
                pair = builtin_pair(name)
                assert pair.w1
                assert euler_verify(pair, pair.delta_p).passed
            print(len(made), len(set(made)))
            print(len(systems), len(set(systems)))
            """)
        src = Path(roots.__file__).resolve().parent.parent
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "9 9\n9 9\n"

    def test_grading_reads_the_root_systems_sums(self, monkeypatch):
        # the bracket-grading check makes no scan of its own: it reads
        # RootSystem.sums, so a pair validates with root_sums unusable
        def unusable(*_args, **_kwargs):
            raise AssertionError("scanned the root sums again")

        b2, b3 = build_classical("B", 2), build_classical("B", 3)
        monkeypatch.setattr(roots, "root_sums", unusable)
        assert validate_pair(marked_node_pair(b3, 2, "so7_so6")) is None
        with pytest.raises(InvalidPairError) as raised:
            SymmetricPair(b2, (W("1,-1"),), LatticeSpec.integers(2),
                          integers_and_half_integers(2))
        assert str(raised.value) == (
            "pair 'pair' fails validation: bracket_grading: 1,0 + 0,1 = "
            "1,1 should lie in Delta_h^+; p_level_parity: root 1,1 has "
            "p-level 2, expected odd")


def test_cache_keys_compare_by_content():
    """The equality and hashing that the caches of ``grid``,
    ``weight_table`` and ``builtin_pair`` key on."""
    b2 = build_classical("B", 2)
    renamed = RootSystem(2, b2.positive_roots, name="other")
    assert renamed == b2 and hash(renamed) == hash(b2)
    assert renamed != RootSystem(2, b2.positive_roots[:2])
    assert grid(renamed) is grid(b2)

    pair = b2_pair(["1,-1", "1,1"])
    other = b2_pair(["1,-1", "1,1"], name="other")
    assert pair == other and hash(pair) == hash(other)
    assert pair != builtin_pair("so5_so2xso3") and pair != b2

    identity = WeylElement.from_word(b2, ())
    twice = WeylElement.from_word(b2, (0, 0))
    assert identity.word != twice.word
    assert identity == twice and hash(identity) == hash(twice)
    assert identity != WeylElement.from_word(b2, (0,))

    shifts = [W("0,0"), W("1/2,1/2")]
    lattice = LatticeSpec(2, shifts)
    reordered = LatticeSpec(2, shifts[::-1])
    assert lattice == reordered and hash(lattice) == hash(reordered)
    assert lattice != LatticeSpec.integers(2)


class TestMarkedNodeRule:
    @pytest.mark.parametrize("name,h_positive,f1_shifts", [
        ("so3_so2", [], ["0", "1/2"]),
        ("so5_so4", ["1,-1", "1,1"], ["0,0", "1/2,1/2"]),
        ("so7_so6", ["1,-1,0", "1,0,-1", "0,1,-1", "1,1,0", "1,0,1",
                     "0,1,1"], ["0,0,0", "1/2,1/2,1/2"]),
        ("so9_so8", ["1,-1,0,0", "1,0,-1,0", "1,0,0,-1", "0,1,-1,0",
                     "0,1,0,-1", "0,0,1,-1", "1,1,0,0", "1,0,1,0",
                     "1,0,0,1", "0,1,1,0", "0,1,0,1", "0,0,1,1"],
         ["0,0,0,0", "1/2,1/2,1/2,1/2"]),
        ("so5_so2xso3", ["0,1"], ["0,0", "1/2,0"]),
    ])
    def test_builtin_pairs(self, name, h_positive, f1_shifts):
        pair = builtin_pair(name)
        assert [str(a) for a in pair.h_positive] == h_positive
        assert pair.lattice_F == LatticeSpec.integers(pair.rank)
        assert [str(s) for s in pair.lattice_F1.sorted_shifts()] == f1_shifts

    def test_node_out_of_range(self):
        with pytest.raises(ValueError, match="node 2"):
            marked_node_pair(build_classical("B", 2), 2, "b2")

    def test_corpus_size(self):
        assert len(CORPUS) == 27
        # pairs with a half-spin weight that more than one sign vector gives
        repeats = [c for c in CORPUS if sum(
            len(spinor_counts(corpus_pair(*c))[s])
            for s in (1, -1)) < 2 ** corpus_pair(*c).m]
        assert len(repeats) == 17

    @pytest.mark.parametrize("family,rank,node", CORPUS)
    def test_pair_w1_and_chi(self, family, rank, node):
        pair = corpus_pair(family, rank, node)
        w1 = w1_enumerate(pair)  # raises InvalidPairError on a failed check
        assert len(listed_group(pair.root_system)) == \
            pair.weyl_h_order * len(w1)
        chi_decompose(pair)
        chi_trace_difference(pair)
        chi_casimir_check(pair)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_theorem_agrees_with_oracle_on_random_mu(self, data):
        pair = corpus_pair(*data.draw(st.sampled_from(CORPUS)))
        lam = data.draw(st.lists(st.integers(-2, 2), min_size=pair.rank,
                                 max_size=pair.rank))
        mu = Weight(lam) + pair.delta_p
        assume(admissible_mu(pair, mu))
        report = checked_euler(pair, mu)
        assert report.passed, (pair.name, str(mu), report.failures)

    @pytest.mark.parametrize("family,rank,node", CORPUS)
    def test_euler_on_a_box(self, family, rank, node):
        # the first six admissible mu with lambda = mu - delta_p in {-1,0,1}^r
        pair = corpus_pair(family, rank, node)
        mus = [mu for _lam, mu in admissible_box(pair, 1)][:6]
        assert len(mus) == (5 if (family, rank, node) == ("B", 2, 1) else 6)
        for mu in mus:
            report = checked_euler(pair, mu)
            assert report.passed, (str(mu), report.failures)
