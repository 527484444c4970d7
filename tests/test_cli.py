import copy
import io
import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dirackernel
from corpus import corpus_pair
from dirackernel import cli
from dirackernel.cli import run
from dirackernel.sympair import builtin_pair
from reference_oracle import kernel_weights, reference_kernel


# G2: the six positive roots in the sum-zero plane of Z^3, h from two of
# them, and F = F1 = Z^3, whose e_k are not integral for G2
G2_PAIR = {"name": "g2", "rank": 3,
           "positive_roots": ["1,-1,0", "-2,1,1", "-1,0,1", "0,-1,1",
                              "1,-2,1", "-1,-1,2"],
           "h_positive_indices": [1, 3], "lattice_F_shifts": ["0,0,0"],
           "lattice_F1_shifts": ["0,0,0"]}


# the pair file of the README
README_PAIR = {"name": "custom_so5_so4", "rank": 2,
               "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
               "h_positive_indices": [0, 1],
               "lattice_F_shifts": ["0,0"],
               "lattice_F1_shifts": ["0,0", "1/2,1/2"]}


# BC1, whose root 1 is twice the root 1/2, with h = {1} and F = F1 =
# (1/2) Z: no compact Lie algebra has it as its root system, so it is
# refused on load
BC1_PAIR = {"name": "bc1", "rank": 1, "positive_roots": ["1/2", "1"],
            "h_positive_indices": [1], "lattice_F_shifts": ["0", "1/2"],
            "lattice_F1_shifts": ["0", "1/2"]}


# pair files whose F misses a simple root, each with a mu and that root:
# C2 and B2 scaled by 1/2, on F = Z^2 and Z^2 u (Z + 1/2)^2
F_MISSES_A_ROOT = {
    "c2_half": ({"name": "c2_half", "rank": 2,
                 "positive_roots": ["1/2,-1/2", "1/2,1/2", "1,0", "0,1"],
                 "h_positive_indices": [2, 3], "lattice_F_shifts": ["0,0"],
                 "lattice_F1_shifts": ["0,0", "1/2,0"]}, "1/2,1", "1/2,-1/2"),
    "b2_half": ({"name": "b2_half", "rank": 2,
                 "positive_roots": ["1/2,-1/2", "1/2,1/2", "1/2,0", "0,1/2"],
                 "h_positive_indices": [3],
                 "lattice_F_shifts": ["0,0", "1/2,1/2"],
                 "lattice_F1_shifts": ["0,0", "1/2,1/2"]}, "1,1/2", "0,1/2")}


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


class TestKernelCommand:
    def test_so3_minus(self):
        code, out, err = invoke(["kernel", "so3_so2", "--mu", "5/2"])
        assert code == 0
        assert "ker D- carries" in out
        assert "nu = 2" in out
        assert "dim 5" in out

    def test_so5_minus(self):
        code, out, _ = invoke(["kernel", "so5_so4", "--mu", "3/2,-1/2"])
        assert code == 0
        assert "nu = 1,0" in out
        assert "dim 5" in out

    def test_inadmissible_names_failed_clause(self):
        code, out, err = invoke(["kernel", "so3_so2", "--mu", "2"])
        assert code == 2
        assert "mu - delta_p not in F" in err

    def test_negative_mu_with_equals_form(self):
        code, out, _ = invoke(["kernel", "so3_so2", "--mu=-3/2"])
        assert code == 0
        assert "ker D+ carries" in out

    def test_negative_mu_as_the_next_token(self):
        # a flag's value is the next token, even one that starts with '-'
        result = invoke(["kernel", "so5_so2xso3", "--mu", "-5/2,0"])
        assert result == invoke(["kernel", "so5_so2xso3", "--mu=-5/2,0"])
        assert result[0] == 0
        assert "mu = -5/2,0:\n  ker D+ carries" in result[1]

    def test_both_zero(self):
        code, out, _ = invoke(["kernel", "so5_so2xso3", "--mu", "3/2,1"])
        assert code == 0
        assert "ker D+ = ker D- = 0" in out

    def test_machine_format(self):
        code, out, _ = invoke(["--format", "machine",
                               "kernel", "so3_so2", "--mu", "5/2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "MINUS"
        assert doc["nu"] == "2"
        assert doc["casimir"] == "6"
        assert doc["dimension"] == 5

    def test_unknown_pair_exits_two(self):
        code, _, err = invoke(["kernel", "so99_so98", "--mu", "1"])
        assert code == 2
        assert "unknown pair" in err


class TestVerifyCommands:
    def test_euler_pass(self):
        code, out, _ = invoke(["verify", "euler", "so3_so2", "--mu", "5/2"])
        assert code == 0
        assert "result: PASS" in out

    def test_euler_machine(self):
        code, out, _ = invoke(["--format", "machine",
                               "verify", "euler", "so5_so4",
                               "--mu", "5/2,3/2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["signed_sum"] == [["2,1", 1]]

    def test_euler_inadmissible(self):
        code, _, err = invoke(["verify", "euler", "so5_so4", "--mu", "1,0"])
        assert code == 2
        assert "mu - delta_p not in F" in err

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_euler_multiplicity_bound(self, monkeypatch, fmt):
        # one row of four read as 1 on both sides: the signed sum is
        # unchanged, so the multiplicity bound alone fails the check
        import dirackernel.dirac as dirac

        extract = dirac._extract
        row = dirackernel.Weight.parse("6,0,0")

        def one_row_read_twice(g, h, top, *rest):
            return 1 if g.weight(top) == row else extract(g, h, top, *rest)

        monkeypatch.setattr(dirac, "_extract", one_row_read_twice)
        failure = "multiplicity bound violated at nu=6,0,0: m+=1, m-=1"
        report = dirac.euler_verify(builtin_pair("so7_so6"),
                                    dirackernel.Weight.parse("9/2,9/2,3/2"))
        assert report.failures == (failure,)
        code, out, _ = invoke(["--format", fmt, "verify", "euler", "so7_so6",
                               "--mu", "9/2,9/2,3/2"])
        assert code == 1
        if fmt == "machine":
            doc = json.loads(out)
            assert doc["passed"] is False
            assert doc["failures"] == [failure]
        else:
            assert failure in out
            assert out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_euler_signed_dimension_against_bott_index(self, monkeypatch,
                                                        fmt):
        # every row dimension doubled: the signed sum is unchanged, so the
        # index check alone fails
        import dirackernel.dirac as dirac

        # the rows are made once per sphere: read the sphere from an empty
        # cache of its own, dropped with the patch
        monkeypatch.setattr(dirac, "_sphere",
                            lru_cache(maxsize=None)(dirac._sphere.__wrapped__))
        dimension = dirac.grid_dim
        monkeypatch.setattr(dirac, "grid_dim",
                            lambda *args: 2 * dimension(*args))
        failure = "signed dimension 70 does not match Bott's index 35"
        code, out, _ = invoke(["--format", fmt, "verify", "euler", "so5_so4",
                               "--mu", "5/2,3/2"])
        assert code == 1
        if fmt == "machine":
            doc = json.loads(out)
            assert doc["passed"] is False
            assert doc["failures"] == [failure]
        else:
            assert f"  FAIL: {failure}\n" in out
            assert out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_euler_signed_sum_against_the_classification(self, monkeypatch,
                                                          fmt):
        # the kernel's PLUS and MINUS swapped: the shell and the index are
        # unchanged, so the comparison with the classification alone fails
        import dirackernel.dirac as dirac

        kernel = dirac.dirac_kernel
        other = {dirac.KernelStatus.PLUS: dirac.KernelStatus.MINUS,
                 dirac.KernelStatus.MINUS: dirac.KernelStatus.PLUS}

        def swapped(pair, mu):
            result = kernel(pair, mu)
            return result._replace(status=other[result.status])

        monkeypatch.setattr(dirac, "dirac_kernel", swapped)
        failure = ("signed sum [(Weight(2,1), 1)] does not match "
                   "classification [(Weight(2,1), -1)]")
        report = dirac.euler_verify(builtin_pair("so5_so4"),
                                    dirackernel.Weight.parse("5/2,3/2"))
        assert report.failures == (failure,)
        code, out, _ = invoke(["--format", fmt, "verify", "euler", "so5_so4",
                               "--mu", "5/2,3/2"])
        assert code == 1
        if fmt == "machine":
            doc = json.loads(out)
            assert (doc["passed"], doc["kernel_status"]) == (False, "MINUS")
            assert doc["failures"] == [failure]
        else:
            assert f"  FAIL: {failure}\n" in out
            assert out.endswith("result: FAIL\n")

    def test_chi_pass_all_builtins(self):
        for name in ("so3_so2", "so5_so4", "so7_so6", "so5_so2xso3"):
            code, out, _ = invoke(["verify", "chi", name])
            assert code == 0, name
            assert "result: PASS" in out

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("change,failures", [
        ("shifted", ["chi split: chi^- does not decompose over W1 with "
                     "highest weights [Weight(3/2,1/2,-1/2)]",
                     "Casimir scalar: Casimir scalar mismatch at sigma with "
                     "delta_p^sigma=3/2,1/2,-1/2: 39/4 != 15/4"]),
        ("repeated", ["chi split: duplicate highest weight 1/2,1/2,-1/2 in "
                      "chi split"])])
    def test_chi_failure_branches(self, monkeypatch, fmt, change, failures):
        # W_1 of so7_so6 with its sigma of sign -1 (delta_p^sigma =
        # 1/2,1/2,-1/2) moved by 1,0,0, or listed twice
        pair = builtin_pair("so7_so6")
        minus = next(x for x in pair.w1 if x.sign == -1)
        if change == "shifted":
            moved = minus._replace(delta_p_sigma=minus.delta_p_sigma
                                   + dirackernel.Weight.parse("1,0,0"))
            w1 = tuple(moved if x is minus else x for x in pair.w1)
        else:
            w1 = tuple(pair.w1) + (minus,)
        monkeypatch.setattr(pair, "w1", w1)
        code, out, _ = invoke(["--format", fmt, "verify", "chi", "so7_so6"])
        assert code == 1
        if fmt == "machine":
            doc = json.loads(out)
            assert doc["passed"] is False
            assert doc["failures"] == failures
            return
        for failure in failures:
            assert f"  FAIL: {failure}\n" in out
        assert out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_chi_split_reads_the_straightened_components(self, monkeypatch,
                                                         fmt):
        # straightening that loses one component of each side fails the
        # chi split: the check reads the components the oracle reads
        import dirackernel.spin as spin

        sums = spin.alternant_sums

        def one_dropped(g, terms):
            found = sums(g, terms)
            del found[next(p for p, m in found.items() if m)]
            return found

        monkeypatch.setattr(spin, "alternant_sums", one_dropped)
        monkeypatch.setattr(spin, "chi_components",
                            spin.chi_components.__wrapped__)
        failure = ("chi split: chi^+ does not decompose over W1 with "
                   "highest weights [Weight(1/2,1/2,1/2)]")
        code, out, _ = invoke(["--format", fmt, "verify", "chi", "so7_so6"])
        assert code == 1
        if fmt == "machine":
            assert json.loads(out)["failures"] == [failure]
        else:
            assert f"  FAIL: {failure}\n" in out
            assert out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_chi_builds_no_weight_rows(self, monkeypatch, tmp_path, fmt):
        # verify chi and both sides of the extraction's components read
        # chi^+- from the merged product, never the sign-vector rows: on
        # so9_so8 and on C3 node 0, two of whose rows of E+ share a weight
        import dirackernel.spin as spin

        c3 = corpus_pair("C", 3, 0)
        path = tmp_path / "c3_node0.json"
        path.write_text(json.dumps({
            "name": c3.name, "rank": c3.rank,
            "positive_roots": [str(a) for a in c3.root_system.positive_roots],
            "h_positive_indices": sorted(c3.h_index),
            "lattice_F_shifts": [str(s) for s in c3.lattice_F.sorted_shifts()],
            "lattice_F1_shifts": [str(s)
                                  for s in c3.lattice_F1.sorted_shifts()]}),
            encoding="utf-8")
        argvs = [["--format", fmt, "verify", "chi", token]
                 for token in ("so9_so8", str(path))]
        expected = [invoke(argv) for argv in argvs]
        assert [code for code, _, _ in expected] == [0, 0]
        kernels = {(pair, s): reference_kernel(pair, s)
                   for pair in (builtin_pair("so9_so8"), c3) for s in (1, -1)}

        def unusable(*_args):
            raise AssertionError("chi^+- was read from the sign-vector rows")

        monkeypatch.setattr(cli, "spinor_weights", unusable)
        monkeypatch.setattr(spin, "spinor_weights", unusable)
        monkeypatch.setattr(spin, "_rows", unusable)
        # uncached, so that a path through the rows would reach them
        monkeypatch.setattr(spin, "spinor_counts",
                            spin.spinor_counts.__wrapped__)
        components = spin.chi_components.__wrapped__
        monkeypatch.setattr(spin, "chi_components", components)
        assert [invoke(argv) for argv in argvs] == expected
        for (pair, s), reference in kernels.items():
            assert kernel_weights(
                pair, s, components(pair, s * (-1) ** pair.m)) == reference


class TestPairCommands:
    def test_list(self):
        code, out, _ = invoke(["pair", "list"])
        assert code == 0
        assert out.splitlines() == [
            "so3_so2", "so5_so4", "so7_so6", "so9_so8", "so5_so2xso3"]

    def test_show_builtin(self):
        code, out, _ = invoke(["pair", "show", "so5_so4"])
        assert code == 0
        assert "delta_p = 1/2,1/2" in out
        assert "|W| = 8" in out
        assert "check bracket_grading: pass" in out

    def test_show_machine_roundtrip(self):
        code, out, _ = invoke(["--format", "machine",
                               "pair", "show", "so5_so2xso3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["m"] == 3
        assert doc["valid"] is True
        assert doc["lattice_F1_shifts"] == ["0,0", "1/2,0"]

    def test_pair_file(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(README_PAIR), encoding="utf-8")
        code, out, _ = invoke(["pair", "show", str(path)])
        assert code == 0
        assert "custom_so5_so4" in out
        code, out, _ = invoke(["kernel", str(path), "--mu", "5/2,3/2"])
        assert code == 0
        assert "nu = 2,1" in out

    def test_pair_file_validation_failure(self, tmp_path):
        data = {
            "name": "bad",
            "rank": 2,
            "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
            "h_positive_indices": [0],
            "lattice_F_shifts": ["0,0"],
            "lattice_F1_shifts": ["0,0"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = invoke(["pair", "show", str(path)])
        assert code == 2
        assert "fails validation" in err

    def test_pair_file_two_failed_checks(self, tmp_path):
        # the README's pair file with h = {1,-1}: one error names both
        # failed checks, in the order validate_pair runs them
        path = tmp_path / "split.json"
        path.write_text(json.dumps(dict(README_PAIR, h_positive_indices=[0])),
                        encoding="utf-8")
        code, out, err = invoke(["pair", "show", str(path)])
        assert (code, out) == (2, "")
        assert err == (
            f"error: bad pair file {path}: pair 'custom_so5_so4' fails "
            "validation: bracket_grading: 1,0 + 0,1 = 1,1 should lie in "
            "Delta_h^+; p_level_parity: root 1,1 has p-level 2, expected "
            "odd\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_pair_show_lists_no_weyl_group(self, tmp_path, monkeypatch, fmt):
        # |W| and |W_H| come from the exponents and W_1 from the
        # Delta_h-dominant cone, so pair show runs with weyl_group,
        # w1_enumerate and every orbit unusable
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(README_PAIR), encoding="utf-8")
        argv = ["--format", fmt, "pair", "show", str(path)]
        expected = invoke(argv)

        def unusable(*_args, **_kwargs):
            raise AssertionError("pair show listed a group")

        stubbed = 0
        for name, original in [("weyl_group", dirackernel.weyl_group),
                               ("w1_enumerate", dirackernel.w1_enumerate),
                               ("orbit", dirackernel.roots.orbit)]:
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("dirackernel")
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, unusable)
                    stubbed += 1
        assert stubbed >= 6  # each defining or importing module
        assert invoke(argv) == expected
        assert expected[0] == 0

    def test_pair_file_bad_indices(self, tmp_path):
        data = {
            "name": "bad2",
            "rank": 2,
            "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
            "h_positive_indices": [0, 0],
            "lattice_F_shifts": ["0,0"],
            "lattice_F1_shifts": ["0,0"],
        }
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = invoke(["pair", "show", str(path)])
        assert code == 2
        assert "distinct" in err

    def test_pair_file_boolean_index(self, tmp_path):
        # true must not be read as index 1
        data = {
            "name": "bad3",
            "rank": 2,
            "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
            "h_positive_indices": [True],
            "lattice_F_shifts": ["0,0"],
            "lattice_F1_shifts": ["0,0", "1/2,0"],
        }
        path = tmp_path / "bad3.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(["pair", "show", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: h_positive_indices must be integers\n"

    def test_directory_as_pair(self, tmp_path):
        code, out, err = invoke(["pair", "show", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read pair file")
        assert err.count("\n") == 1

    def test_pair_file_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        code, out, err = invoke(["kernel", str(path), "--mu", "1/2"])
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse pair file")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["pair", "show"], ["spinor"], ["verify", "chi"]])
    def test_pair_file_root_outside_half_integers(self, tmp_path, argv):
        data = {"name": "third", "rank": 1, "positive_roots": ["1/3"],
                "h_positive_indices": [], "lattice_F_shifts": ["0"],
                "lattice_F1_shifts": ["0", "1/2"]}
        path = tmp_path / "third.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke([*argv, str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad pair file")
        assert "outside 1/2 Z" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command,extra", [
        (["pair", "show"], []), (["kernel"], ["--mu", "2,2"]),
        (["verify", "euler"], ["--mu", "2,2"])])
    def test_pair_file_F_not_integral(self, tmp_path, command, extra):
        # C2 with F = F1 = Z^2 and (Z + 1/2)^2: <(1/2,1/2), (0,1)> = 1/2
        data = {"name": "c2_half", "rank": 2,
                "positive_roots": ["1,-1", "1,1", "2,0", "0,2"],
                "h_positive_indices": [0],
                "lattice_F_shifts": ["0,0", "1/2,1/2"],
                "lattice_F1_shifts": ["0,0", "1/2,1/2"]}
        path = tmp_path / "c2_half.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke([*command, str(path), *extra])
        assert (code, out) == (2, "")
        assert err.startswith("error: bad pair file")
        assert "F shift 1/2,1/2 is not integral" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command,extra", [
        (["pair", "show"], []), (["spinor"], []),
        (["kernel"], ["--mu", "1/2,1/2"]),
        (["verify", "euler"], ["--mu", "1/2,1/2"]), (["verify", "chi"], []),
        (["branch"], ["--nu", "0,0"])])
    def test_pair_file_non_string_root(self, tmp_path, command, extra):
        data = {"name": "ints", "rank": 2, "positive_roots": [1, 2],
                "h_positive_indices": [], "lattice_F_shifts": ["0,0"],
                "lattice_F1_shifts": ["0,0", "1/2,1/2"]}
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke([*command, str(path), *extra])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: "
                       "weight must be a string, got 1\n")

    @pytest.mark.parametrize("argv", [
        ["pair", "show"], ["spinor"], ["verify", "chi"]])
    def test_pair_file_failing_w1_count(self, tmp_path, argv):
        # passes every validate_pair check, and the reflections in the
        # orthogonal simple roots would give |W| = 4 against |W_H| * |W_1|
        # = 2 * 1, but the roots are not closed under those reflections
        data = {"name": "w1_count", "rank": 2,
                "positive_roots": ["1,0", "0,1", "1,1"],
                "h_positive_indices": [2], "lattice_F_shifts": ["0,0"],
                "lattice_F1_shifts": ["0,0", "1/2,1/2"]}
        path = tmp_path / "w1_count.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke([*argv, str(path)])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: reflecting 1,1 in the "
                       "simple root 1,0 gives -1,1, which is not a root\n")

    @pytest.mark.parametrize("command", [["kernel"], ["verify", "euler"]])
    def test_pair_file_infinite_weyl_group(self, tmp_path, command):
        # 1,0 and 2,1 meet at an angle that is no rational multiple of pi
        data = {"name": "infinite", "rank": 2,
                "positive_roots": ["1,0", "2,1"],
                "h_positive_indices": [], "lattice_F_shifts": ["0,0"],
                "lattice_F1_shifts": ["0,0", "1/2,1/2"]}
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke([*command, str(path), "--mu", "1/2,1/2"])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: reflecting 2,1 in the "
                       "simple root 1,0 gives -2,1, which is not a root\n")

    @pytest.mark.parametrize("command", [
        ["pair", "show"], ["kernel", "--mu", "1/4"]])
    def test_pair_file_dependent_simple_roots(self, tmp_path, command):
        # every check passes on 1/2 and 2 except independence: 2 = 4 * (1/2)
        data = {"name": "dependent", "rank": 1,
                "positive_roots": ["1/2", "2"], "h_positive_indices": [1],
                "lattice_F_shifts": ["0"], "lattice_F1_shifts": ["0", "1/2"]}
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke([*command, str(path)])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: the simple roots 1/2; "
                       "2 are linearly dependent: 2 has coefficients "
                       "(4, 0)\n")

    @pytest.mark.parametrize("command,extra", [
        (["pair", "show"], []), (["verify", "chi"], []),
        (["kernel"], ["--mu", "0,0,1"]), (["verify", "euler"],
                                         ["--mu", "0,0,1"])])
    def test_pair_file_F_not_integral_generator(self, tmp_path, command,
                                                extra):
        # G2 in the sum-zero plane of Z^3 with F = Z^3: e_1 pairs to -2/3
        # with a coroot, so kernel once reached nu=1,1,-1 outside F
        path = tmp_path / "g2.json"
        path.write_text(json.dumps(G2_PAIR), encoding="utf-8")
        code, out, err = invoke([*command, str(path), *extra])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: F contains 1,0,0, "
                       f"which is not integral for RootSystem(g2, 6 "
                       f"positive roots)\n")

    @pytest.mark.parametrize("field,value,message", [
        ("rank", 2.5, "rank must be a JSON integer, got 2.5"),
        ("rank", 2.0, "rank must be a JSON integer, got 2.0"),
        ("rank", "2", "rank must be a JSON integer, got '2'"),
        ("rank", True, "rank must be a JSON integer, got True"),
        ("positive_roots", "1,-1",
         "positive_roots must be a JSON list, got '1,-1'"),
        ("h_positive_indices", "0",
         "h_positive_indices must be a JSON list, got '0'"),
        ("lattice_F_shifts", "0,0",
         "lattice_F_shifts must be a JSON list, got '0,0'"),
        ("lattice_F1_shifts", {"0,0": 1},
         "lattice_F1_shifts must be a JSON list, got {'0,0': 1}")],
        ids=["rank_fraction", "rank_float", "rank_string", "rank_bool",
             "roots_string", "indices_string", "F_string", "F1_object"])
    @pytest.mark.parametrize("command", [["pair", "show"], ["spinor"]],
                             ids=["pair_show", "spinor"])
    def test_pair_file_field_of_the_wrong_kind(self, tmp_path, command, field,
                                              value, message):
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(dict(README_PAIR, **{field: value})),
                        encoding="utf-8")
        code, out, err = invoke([*command, str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: bad pair file {path}: {message}\n"

    @pytest.mark.parametrize("name", [["x", 1], {"a": 1}, 7, None],
                             ids=["list", "object", "number", "null"])
    @pytest.mark.parametrize("command", [["pair", "show"], ["spinor"]],
                             ids=["pair_show", "spinor"])
    def test_pair_file_name_not_a_string(self, tmp_path, command, name):
        # a name that is no string once reached the output as a JSON list
        path = tmp_path / "name.json"
        path.write_text(json.dumps(dict(README_PAIR, name=name)),
                        encoding="utf-8")
        code, out, err = invoke([*command, str(path)])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: name must be a JSON "
                       f"string, got {name!r}\n")

    @pytest.mark.parametrize("data", [[README_PAIR], "pair", 2, None],
                             ids=["list", "string", "number", "null"])
    def test_pair_file_top_level_not_an_object(self, tmp_path, data):
        path = tmp_path / "top.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(["pair", "show", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: the top level must be "
                       f"a JSON object\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("command,flags", [
        (["pair", "show"], []), (["spinor"], []), (["kernel"], ["--mu=1/2"]),
        (["verify", "euler"], ["--mu=1/2"]), (["verify", "chi"], [])],
        ids=["pair_show", "spinor", "kernel", "verify_euler", "verify_chi"])
    def test_pair_file_bc1(self, tmp_path, fmt, command, flags):
        # a root twice another is refused when the file is loaded, before
        # any command reads the pair (branch below)
        path = tmp_path / "bc1.json"
        path.write_text(json.dumps(BC1_PAIR), encoding="utf-8")
        code, out, err = invoke(["--format", fmt, *command, str(path),
                                 *flags])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: root 1 is twice the "
                       "root 1/2\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("command", [
        ["pair", "show"], ["kernel"], ["verify", "euler"]],
        ids=["pair_show", "kernel", "verify_euler"])
    @pytest.mark.parametrize("name", list(F_MISSES_A_ROOT))
    def test_pair_file_F_misses_a_root(self, tmp_path, fmt, command, name):
        # refused when the file is loaded: F must hold the roots, or nu =
        # w(lambda + delta) - delta, which differs from lambda by roots,
        # leaves F
        data, mu, root = F_MISSES_A_ROOT[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        extra = [] if command == ["pair", "show"] else ["--mu", mu]
        code, out, err = invoke(["--format", fmt, *command, str(path),
                                 *extra])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: F misses the simple "
                       f"root {root} of RootSystem({name}, "
                       f"{len(data['positive_roots'])} positive roots)\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("nu", ["0", "1"])
    def test_pair_file_bc1_branch_refused(self, tmp_path, fmt, nu):
        # BC1 is refused on load, so no character of it is ever formed
        path = tmp_path / "bc1.json"
        path.write_text(json.dumps(BC1_PAIR), encoding="utf-8")
        code, out, err = invoke(["--format", fmt, "branch", str(path),
                                 "--nu", nu])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: root 1 is twice the "
                       "root 1/2\n")

    def test_pair_file_huge_rank(self, tmp_path):
        # the zero-shift check must not build a weight of this length
        data = {"name": "huge", "rank": 10 ** 20, "positive_roots": [],
                "h_positive_indices": [], "lattice_F_shifts": [],
                "lattice_F1_shifts": []}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = invoke(["pair", "show", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: "
                       "the zero shift must be present\n")


class TestOtherCommands:
    def test_spinor_table(self):
        code, out, _ = invoke(["spinor", "so5_so4"])
        assert code == 0
        assert "chi+ highest weights: 1/2,1/2" in out
        assert "trace-difference identity: pass" in out

    def test_branch(self):
        code, out, _ = invoke(["branch", "so5_so4", "--nu", "1,0"])
        assert code == 0
        assert "[1,0] x 1" in out
        assert "[0,0] x 1" in out

    def test_tensor(self):
        code, out, _ = invoke(["tensor", "B1", "--nu1", "1", "--nu2", "1"])
        assert code == 0
        assert "[2] x 1" in out and "[1] x 1" in out and "[0] x 1" in out

    def test_dim(self):
        code, out, _ = invoke(["dim", "B2", "--nu", "1/2,1/2"])
        assert code == 0
        assert out.strip().endswith("4")

    def test_dim_machine(self):
        code, out, _ = invoke(["--format", "machine",
                               "dim", "B2", "--nu", "1,0"])
        assert json.loads(out)["dimension"] == 5

    def test_bad_system_token(self):
        code, _, err = invoke(["dim", "X9", "--nu", "1"])
        assert code == 2

    @pytest.mark.parametrize("nu", ["5/2,0", "1/3,0"])
    def test_non_integral_weight_rejected(self, nu):
        code, out, err = invoke(["dim", "B2", "--nu", nu])
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert "not algebraically integral" in err
        assert err.count("\n") == 1

    def test_rank_too_large(self):
        code, out, err = invoke(["dim", "A9999999999999999999", "--nu", "1"])
        assert (code, out) == (2, "")
        assert err == "error: rank 9999999999999999999 is too large\n"

    @pytest.mark.parametrize("argv,message", [
        (["dim", "A40", "--nu", "1"],
         "weight '1' has 1 coordinates, expected 41"),
        (["tensor", "A40", "--nu1", "1", "--nu2", "1"],
         "weight '1' has 1 coordinates, expected 41"),
        (["tensor", "D40", "--nu1", "1,0", "--nu2", "1"],
         "weight '1,0' has 2 coordinates, expected 40")])
    def test_weight_length_checked_before_build(self, monkeypatch, argv,
                                                message):
        def build_classical(family, rank):
            raise AssertionError("the root system was built")
        monkeypatch.setattr(cli, "build_classical", build_classical)
        assert invoke(argv) == (2, "", f"error: {message}\n")

    def test_non_dominant_weight_rejected(self):
        code, _, err = invoke(["dim", "B2", "--nu", "0,1"])
        assert code == 2

    # weights off the integer grid of the root system: membership and the
    # highest-weight check run on the grid, with the Fraction-era messages
    @pytest.mark.parametrize("argv,message", [
        (["kernel", "so7_so6", "--mu=-1/3,0,0"],
         "mu=-1/3,0,0 is not admissible for so7_so6: mu not in F1; "
         "mu not dominant for Delta_h+; mu - delta_p not in F"),
        (["branch", "so9_so8", "--nu", "1/3,0,0,0"],
         "1/3,0,0,0 is not in F1 for pair so9_so8"),
        (["dim", "B2", "--nu", "1/3,0"],
         "1/3,0 is not algebraically integral for "
         "RootSystem(B2, 4 positive roots)")])
    def test_off_grid_weight_stderr(self, argv, message):
        assert invoke(argv) == (2, "", f"error: {message}\n")

    def test_wrong_weight_length(self):
        code, _, err = invoke(["kernel", "so5_so4", "--mu", "1/2"])
        assert code == 2
        assert "coordinates" in err


HELP_HEAD = "dirackernel [--format text|machine] <command> ...\n\n"


class TestExitCodes:
    def test_help_exits_zero(self):
        code, out, err = invoke(["--help"])
        assert (code, err) == (0, "")
        assert out.startswith(HELP_HEAD)

    @pytest.mark.parametrize("argv,words,rows", [
        (["-h"], [], 9),
        (["--format", "machine", "--help"], [], 9),
        (["pair", "-h"], ["pair"], 2),
        (["verify", "--help"], ["verify"], 2),
        (["verify", "euler", "-h"], ["verify", "euler"], 1),
        (["kernel", "so7_so6", "--help"], ["kernel"], 1),
        (["tensor", "--nu1", "1,0", "-h"], ["tensor"], 1),
        (["bogus", "--help"], [], 9),
    ])
    def test_help_after_any_words_goes_to_out(self, argv, words, rows):
        """The usage of every command the words read so far select."""
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out.startswith(HELP_HEAD)
        usage = out[len(HELP_HEAD):].splitlines()
        assert len(usage) == rows
        assert all(line.split()[:len(words)] == words for line in usage)

    def test_readme_command_block_is_the_help(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("## Command line\n", 1)[1]
        block = section.split("```text\n", 1)[1].split("```", 1)[0]
        assert invoke(["--help"]) == (0, block, "")

    @pytest.mark.parametrize("argv,message", [
        ([], "expected pair | spinor | kernel | verify | branch | tensor | "
             "dim, got nothing"),
        (["bogus"], "expected pair | spinor | kernel | verify | branch | "
                    "tensor | dim, got 'bogus'"),
        (["pair"], "expected pair list | pair show, got nothing"),
        (["verify"], "expected verify euler | verify chi, got nothing"),
        (["--format", "xml", "pair", "list"],
         "--format takes text or machine, not 'xml'"),
        (["--format"], "--format takes text or machine, not ''"),
        (["kernel", "so7_so6"],
         "usage: dirackernel kernel <pair> --mu <weight>"),
        (["kernel", "so7_so6", "--mu"],
         "usage: dirackernel kernel <pair> --mu <weight>"),
        (["dim", "B2", "--nu", "1,0", "--mu", "1"],
         "usage: dirackernel dim <system> --nu <weight>"),
        (["pair", "list", "extra"], "usage: dirackernel pair list"),
        # a repeated flag is an extra argument, not a second value
        (["kernel", "so7_so6", "--mu", "13/2,7/2,3/2", "--mu", "13/2,7/2,3/2"],
         "usage: dirackernel kernel <pair> --mu <weight>"),
        (["dim", "B2", "--nu", "1,0", "--nu=1,0"],
         "usage: dirackernel dim <system> --nu <weight>"),
    ])
    def test_usage_error_is_one_line_on_err(self, argv, message):
        assert invoke(argv) == (2, "", f"error: {message}\n")

    def test_usage_error_in_a_real_process(self):
        """The console script's own stderr gets the one error line too."""
        src = Path(dirackernel.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-c", "from dirackernel.cli import main; main()",
             "kernel", "so7_so6"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: usage: dirackernel kernel <pair> --mu <weight>\n")

    def test_missing_subcommand_exits_two(self):
        code, _, _ = invoke([])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_verification_failure_exits_one(self, monkeypatch, fmt):
        import dirackernel.cli as cli
        from dirackernel.dirac import EulerReport, dirac_kernel
        from dirackernel.lattice import Weight
        from dirackernel.sympair import builtin_pair

        pair = builtin_pair("so3_so2")
        mu = Weight.parse("5/2")
        kernel = dirac_kernel(pair, mu)
        broken = EulerReport(
            pair_name=pair.name, mu=mu, lam=Weight.parse("2"), rows=(),
            signed_sum=(), expected=((Weight.parse("2"), -1),),
            kernel=kernel, failures=("signed sum mismatch",))
        monkeypatch.setattr(cli, "euler_verify", lambda p, m: broken)
        code, out, _ = invoke(["--format", fmt, "verify", "euler", "so3_so2",
                               "--mu", "5/2"])
        assert code == 1
        if fmt == "machine":
            assert json.loads(out)["passed"] is False
        else:
            assert "result: FAIL" in out

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_shared_spinor_weight_fails_verify_chi(self, monkeypatch, fmt):
        import dirackernel.spin as spin

        # E+ and E- of so3_so2 (grid D = 2) made to share the weight -1/2
        monkeypatch.setattr(spin, "spinor_counts",
                            lambda pair: {1: {(1,): 1, (-1,): 1},
                                          -1: {(-1,): 1}})
        code, out, _ = invoke(["--format", fmt, "verify", "chi", "so3_so2"])
        assert code == 1
        if fmt == "machine":
            doc = json.loads(out)
            assert doc["passed"] is False
            assert ("E+ and E- share weights: [Weight(-1/2)]"
                    in doc["failures"])
            return
        assert "  FAIL: E+ and E- share weights: [Weight(-1/2)]\n" in out
        assert "disjointness: pass" not in out
        assert out.endswith("result: FAIL\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_consistency_error_in_spinor(self, monkeypatch, fmt):
        import dirackernel.spin as spin

        # the shared weight of the test above, which chi_decompose raises
        # on: spinor calls it outside any try; the components are
        # straightened from these counts, not read from the cache
        monkeypatch.setattr(spin, "spinor_counts",
                            lambda pair: {1: {(1,): 1, (-1,): 1},
                                          -1: {(-1,): 1}})
        monkeypatch.setattr(spin, "chi_components",
                            spin.chi_components.__wrapped__)
        code, out, err = invoke(["--format", fmt, "spinor", "so3_so2"])
        message = ("internal consistency error: chi^+ does not decompose "
                   "over W1 with highest weights [Weight(1/2)]")
        assert code == 1
        if fmt == "machine":
            assert json.loads(out) == {"error": message, "passed": False}
            assert err == ""
        else:
            assert (out, err) == ("", message + "\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_consistency_error_in_kernel(self, monkeypatch, fmt):
        import dirackernel.dirac as dirac

        # Weyl's product with a flipped sign: Bott's index disagrees with
        # the side of the walk
        product = dirac.weyl_product
        monkeypatch.setattr(dirac, "weyl_product",
                            lambda *args: -product(*args))
        code, out, err = invoke(["--format", fmt, "kernel", "so5_so4",
                                 "--mu", "5/2,3/2"])
        message = ("internal consistency error: Bott's index -35 disagrees "
                   "with the side sgn(sigma) (-1)^m = 1 for mu=5/2,3/2")
        assert code == 1
        if fmt == "machine":
            assert json.loads(out) == {"error": message, "passed": False}
            assert err == ""
        else:
            assert (out, err) == ("", message + "\n")

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("change,message", [
        # the walk's word gains s_0, so sigma(delta) = 1/2,3/2 is not
        # strictly Delta_h-dominant
        (lambda steps, end: ((0,) + steps, end),
         "computed sigma is not in W_1 for mu=5/2,3/2 (lambda=2,1)"),
        # the walk's end point moved by 1/D off F = Z^2
        (lambda steps, end: (steps, (end[0] + 1,) + end[1:]),
         "computed nu=5/2,1 is not a dominant lattice point for "
         "mu=5/2,3/2"),
        # the walk's end point moved by D e_0: nu = 3,1 is dominant and in
        # F, but on another sphere than lambda + delta
        (lambda steps, end: (steps, (end[0] + 2,) + end[1:]),
         "Casimir mismatch between nu and lambda")],
        ids=["sigma", "nu", "casimir"])
    def test_kernel_checks_on_the_walk(self, monkeypatch, fmt, change,
                                       message):
        # each check after the walk raises (not asserts, so it holds under
        # python -O), and the command prints one line
        from dirackernel.roots import Grid

        walk = Grid.walk
        monkeypatch.setattr(Grid, "walk", lambda g, x: change(*walk(g, x)))
        code, out, err = invoke(["--format", fmt, "kernel", "so5_so4",
                                 "--mu", "5/2,3/2"])
        message = "internal consistency error: " + message
        assert code == 1
        if fmt == "machine":
            assert json.loads(out) == {"error": message, "passed": False}
            assert err == ""
        else:
            assert (out, err) == ("", message + "\n")

    def test_group_order_limit_exits_two(self, monkeypatch):
        from dirackernel.errors import GroupOrderLimitError
        from dirackernel.sympair import SymmetricPair

        def too_large(pair):
            raise GroupOrderLimitError("group closure exceeded limit 10")

        # a property is a data descriptor, so it wins over a cached w1
        monkeypatch.setattr(SymmetricPair, "w1", property(too_large))
        code, out, err = invoke(["pair", "show", "so5_so4"])
        assert (code, out) == (2, "")
        assert err == "error: group closure exceeded limit 10\n"

    def test_zero_denominator_exits_two_with_one_line(self, tmp_path):
        code, out, err = invoke(["verify", "euler", "so3_so2", "--mu", "1/0"])
        assert (code, out) == (2, "")
        assert err == "error: bad weight string '1/0': a denominator is zero\n"
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(dict(README_PAIR, positive_roots=[
            "1,-1", "1,1", "1/0,0", "0,1"])), encoding="utf-8")
        code, out, err = invoke(["verify", "euler", str(path), "--mu", "1,0"])
        assert (code, out) == (2, "")
        assert err == (f"error: bad pair file {path}: bad weight string "
                       "'1/0,0': a denominator is zero\n")

    @pytest.mark.parametrize("token,nu", [("B\u00b2", "1"),
                                          ("B\u0663", "1,0,0")])
    def test_non_ascii_digits_in_system_token_exit_two(self, token, nu):
        # a superscript two and an Arabic-Indic three are not a rank
        assert invoke(["dim", token, "--nu", nu]) == (
            2, "", f"error: bad root-system token {token!r}; "
                   "expected e.g. B2\n")

    def test_w1_over_the_limit_exits_two_at_once(self, tmp_path):
        # A22 node 11 has |W_1| = C(23, 12) = 1,352,078, refused from the
        # exponents before W_1 is searched
        from dirackernel.roots import build_classical
        from dirackernel.sympair import marked_node_pair

        pair = marked_node_pair(build_classical("A", 22), 11, "a22_node11")
        data = {"name": pair.name, "rank": pair.rank,
                "positive_roots": [
                    str(a) for a in pair.root_system.positive_roots],
                "h_positive_indices": sorted(pair.h_index),
                "lattice_F_shifts": [
                    str(s) for s in pair.lattice_F.sorted_shifts()],
                "lattice_F1_shifts": [
                    str(s) for s in pair.lattice_F1.sorted_shifts()]}
        path = tmp_path / "a22.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        start = time.perf_counter()
        code, out, err = invoke(["pair", "show", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: |W_1| = 1352078 exceeds limit 1000000\n"
        assert time.perf_counter() - start < 5


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["pair", "show", "so5_so2xso3"],
        ["spinor", "so7_so6"],
        ["kernel", "so5_so4", "--mu", "5/2,3/2"],
        ["verify", "euler", "so5_so4", "--mu", "3/2,-1/2"],
        ["--format", "machine", "pair", "show", "so5_so4"],
        ["tensor", "B2", "--nu1", "1,0", "--nu2", "1,0"],
    ])
    def test_repeated_runs_byte_identical(self, argv):
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
        assert first[0] == 0


# -- the exit-code contract under random input ------------------------------

BASE_PAIR = {"name": "fuzz", "rank": 2,
             "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
             "h_positive_indices": [0, 1], "lattice_F_shifts": ["0,0"],
             "lattice_F1_shifts": ["0,0", "1/2,1/2"]}
JUNK = [None, True, 0, 1, -1, 2.5, "", "x", "1,0", "1/2,1/2", [], {}, [0],
        ["0,0"], [1, 2], {"a": 1}]
junk = st.sampled_from(JUNK).map(copy.deepcopy)  # mutated in place later
# "2,1" meets each other root at an angle that is no rational multiple of
# pi, so together with one it would generate an infinite reflection group;
# RootSystem rejects such a set as not closed under its reflections
ROOT_POOL = ["1,0", "0,1", "1,1", "1,-1", "2,0", "0,2", "1/2,1/2",
             "1/2,-1/2", "2,1"]
SHIFT_POOL = ["0,0", "1/2,1/2", "1/2,0", "0,1/2", "1,0", "0"]
WEIGHTS = ["1/2", "3/2", "2", "-3/2", "1/2,1/2", "3/2,-1/2", "3/2,1/2",
           "1,0", "0,1", "0,0", "1/3,0", "x", "", "1/0", "1,2,3"]
PAIR_COMMANDS = [["pair", "show"], ["spinor"], ["kernel"],
                 ["verify", "euler"], ["verify", "chi"], ["branch"]]


@st.composite
def mutated_pair_file(draw):
    """The valid so5_so4 file, the G2 file (F not integral) or the BC1 file
    (a root twice another) after up to three random mutations."""
    data = json.loads(json.dumps(draw(st.sampled_from(
        [BASE_PAIR, G2_PAIR, BC1_PAIR]))))
    for _ in range(draw(st.integers(0, 3))):
        if not isinstance(data, dict):
            break
        kind = draw(st.sampled_from(
            ["type", "missing", "entry", "roots", "roots", "shifts",
             "document"]))
        keys = sorted(data)
        if kind == "type" and keys:
            data[draw(st.sampled_from(keys))] = draw(junk)
        elif kind == "missing" and keys:
            del data[draw(st.sampled_from(keys))]
        elif kind == "entry":
            lists = [k for k in keys if isinstance(data[k], list) and data[k]]
            if lists:
                entries = data[draw(st.sampled_from(lists))]
                entries[draw(st.integers(0, len(entries) - 1))] = draw(junk)
        elif kind == "roots":
            roots = draw(st.lists(st.sampled_from(ROOT_POOL), min_size=1,
                                  max_size=5, unique=True))
            data["positive_roots"] = roots
            data["h_positive_indices"] = draw(st.lists(
                st.integers(-1, len(roots)), max_size=3))
        elif kind == "shifts":
            key = draw(st.sampled_from(
                ["lattice_F_shifts", "lattice_F1_shifts"]))
            data[key] = draw(st.lists(st.sampled_from(SHIFT_POOL),
                                      max_size=3))
        else:
            data = draw(junk)
    return data


# the weight flags each command requires
COMMAND_FLAGS = {("kernel",): ["--mu"], ("verify", "euler"): ["--mu"],
                 ("branch",): ["--nu"], ("dim",): ["--nu"],
                 ("tensor",): ["--nu1", "--nu2"]}
PAIRS = ["so3_so2", "so5_so4", "nosuch"]
SYSTEMS = ["B1", "B2", "A1", "C2", "D2", "B0", "X2"]


@st.composite
def small_argv(draw):
    fmt = draw(st.sampled_from([[], [], ["--format", "machine"],
                                ["--format", "xml"]]))
    command = draw(st.sampled_from(
        PAIR_COMMANDS + [["pair", "list"], ["tensor"], ["dim"], ["bogus"]]))
    on_system = command[0] in ("tensor", "dim")
    target = draw(st.sampled_from(  # with one target of the wrong kind
        (SYSTEMS if on_system else PAIRS) + ["so5_so4" if on_system else "B2"]))
    flags = COMMAND_FLAGS.get(tuple(command), [])
    if draw(st.integers(0, 9)) == 0:  # a missing or an unknown flag
        flags = draw(st.lists(st.sampled_from(["--mu", "--nu", "--nu1"]),
                              max_size=2))
    return [*fmt, *command, target,
            *(f"{f}={draw(st.sampled_from(WEIGHTS))}" for f in flags)]


def assert_cli_contract(argv):
    """Exit 0, 1 or 2, no exception (a traceback in a real process), and a
    message on stderr is one line with nothing on stdout."""
    code, out, err = invoke(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if err:
        assert err.startswith(("error: ", "internal consistency error: "))
        assert err.count("\n") == 1
        assert out == ""


class TestContractUnderRandomInput:
    @given(argv=small_argv())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_argv(self, argv):
        assert_cli_contract(argv)

    @given(data=mutated_pair_file(),
           command=st.sampled_from(PAIR_COMMANDS),
           weight=st.sampled_from(WEIGHTS))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mutated_pair_file(self, tmp_path_factory, data, command,
                               weight):
        path = tmp_path_factory.mktemp("fuzz") / "pair.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        flags = COMMAND_FLAGS.get(tuple(command), [])
        assert_cli_contract(
            [*command, str(path), *(f"{f}={weight}" for f in flags)])


GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "cli_goldens.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_golden_output(key):
    """Exit code and stdout match the committed CLI goldens byte for byte."""
    code, out, _ = invoke(key.split(" "))
    assert (code, out) == (GOLDENS[key]["code"], GOLDENS[key]["stdout"])


def test_import_loads_no_argparse_gettext_json_dataclasses_inspect():
    """Every cold CLI process pays for what ``import dirackernel.cli``
    loads, and ``dataclasses`` brings ``inspect``, ``ast`` and ``dis``.
    ``json`` is not loaded either: only a pair file and machine output
    need it, and they import it where they read or write it.  The command
    line is read from the module's own table, without ``argparse`` and the
    ``gettext`` it imports."""
    src = Path(dirackernel.__file__).resolve().parent.parent
    code = ("import sys, dirackernel.cli; print(sorted({'argparse', "
            "'dataclasses', 'gettext', 'inspect', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_without_site_loads_no_typing():
    """The library imports no ``typing``: its records are
    ``collections.namedtuple`` classes and its annotations strings of
    builtin generics.  ``python -S`` runs no ``site``, whose ``.pth``
    files may import ``typing`` before any code of the package."""
    src = Path(dirackernel.__file__).resolve().parent.parent
    code = "import sys, dirackernel.cli; print('typing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
