import io
import json
from pathlib import Path

import pytest

from dirackernel.cli import run


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

    def test_chi_pass_all_builtins(self):
        for name in ("so3_so2", "so5_so4", "so7_so6", "so5_so2xso3"):
            code, out, _ = invoke(["verify", "chi", name])
            assert code == 0, name
            assert "result: PASS" in out


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
        data = {
            "name": "custom_so5_so4",
            "rank": 2,
            "positive_roots": ["1,-1", "1,1", "1,0", "0,1"],
            "h_positive_indices": [0, 1],
            "lattice_F_shifts": ["0,0"],
            "lattice_F1_shifts": ["0,0", "1/2,1/2"],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data), encoding="utf-8")
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

    def test_non_dominant_weight_rejected(self):
        code, _, err = invoke(["dim", "B2", "--nu", "0,1"])
        assert code == 2

    def test_wrong_weight_length(self):
        code, _, err = invoke(["kernel", "so5_so4", "--mu", "1/2"])
        assert code == 2
        assert "coordinates" in err


class TestExitCodes:
    def test_help_exits_zero(self):
        code, _, _ = invoke(["--help"])
        assert code == 0

    def test_missing_subcommand_exits_two(self):
        code, _, _ = invoke([])
        assert code == 2

    def test_verification_failure_exits_one(self, monkeypatch):
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
        code, out, _ = invoke(["verify", "euler", "so3_so2", "--mu", "5/2"])
        assert code == 1
        assert "result: FAIL" in out

    def test_group_order_limit_exits_two(self, monkeypatch):
        import dirackernel.cli as cli
        from dirackernel.errors import GroupOrderLimitError

        def too_large(pair):
            raise GroupOrderLimitError("group closure exceeded limit 10")

        monkeypatch.setattr(cli, "w1_enumerate", too_large)
        code, out, err = invoke(["pair", "show", "so5_so4"])
        assert (code, out) == (2, "")
        assert err == "error: group closure exceeded limit 10\n"


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


GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "cli_goldens.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_golden_output(key):
    """Exit code and stdout match the committed CLI goldens byte for byte."""
    code, out, _ = invoke(key.split(" "))
    assert (code, out) == (GOLDENS[key]["code"], GOLDENS[key]["stdout"])
