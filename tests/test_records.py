"""The seven result records are ``collections.namedtuple`` classes and
keep their tuple API: field names, ``KernelResult``'s defaults,
``_replace``, ``EulerReport.passed``, ``pickle`` and ``repr``."""

import pickle
from fractions import Fraction

import pytest

from dirackernel.characters import WeightTable, weight_table
from dirackernel.dirac import (EulerReport, KernelResult, KernelStatus,
                               ShellRow, dirac_kernel, euler_verify)
from dirackernel.roots import build_classical
from dirackernel.spin import SpinorWeightEntry, SpinorWeights, spinor_weights
from dirackernel.sympair import W1Element, builtin_pair
from reference_roots import W

FIELDS = {
    KernelResult: ("status", "casimir", "nu", "sigma", "sigma_sign",
                   "dimension"),
    EulerReport: ("pair_name", "mu", "lam", "rows", "signed_sum",
                  "expected", "kernel", "failures"),
    ShellRow: ("nu", "dimension", "mult_plus", "mult_minus"),
    W1Element: ("element", "sign", "delta_p_sigma"),
    WeightTable: ("grid", "terms"),
    SpinorWeightEntry: ("epsilon", "weight", "parity"),
    SpinorWeights: ("entries",),
}


@pytest.mark.parametrize("record", list(FIELDS), ids=lambda r: r.__name__)
def test_fields_replace_pickle_and_repr(record):
    fields = FIELDS[record]
    assert record._fields == fields
    value = record(*range(len(fields)))
    assert isinstance(value, tuple)
    assert tuple(value) == tuple(range(len(fields)))
    assert getattr(value, fields[-1]) == len(fields) - 1
    changed = value._replace(**{fields[0]: "x"})
    assert type(changed) is record and changed[0] == "x"
    assert changed[1:] == value[1:]
    assert pickle.loads(pickle.dumps(value)) == value
    assert type(pickle.loads(pickle.dumps(value))) is record
    assert repr(value) == record.__name__ + "(" + ", ".join(
        f"{name}={i}" for i, name in enumerate(fields)) + ")"
    assert record.__module__.startswith("dirackernel.")


def test_kernel_result_defaults():
    assert KernelResult._field_defaults == dict.fromkeys(
        ("nu", "sigma", "sigma_sign", "dimension"))
    result = KernelResult(KernelStatus.BOTH_ZERO, Fraction(1, 2))
    assert result[2:] == (None,) * 4
    assert repr(result) == (
        "KernelResult(status=<KernelStatus.BOTH_ZERO: 'BOTH_ZERO'>, "
        "casimir=Fraction(1, 2), nu=None, sigma=None, sigma_sign=None, "
        "dimension=None)")
    with pytest.raises(TypeError):
        KernelResult(KernelStatus.PLUS)


def test_euler_report_passed():
    report = EulerReport(*range(7), ())
    assert report.passed
    failed = report._replace(failures=("bad",))
    assert type(failed) is EulerReport and not failed.passed
    with pytest.raises(AttributeError):
        report.extra = 1  # no instance dict


def test_kernel_result_with_sigma_pickles():
    # sigma is a slotted WeylElement; every protocol from 2 keeps it
    pair = builtin_pair("so5_so2xso3")
    result = dirac_kernel(pair, W("-1/2,1"))
    assert result.sigma.word == (0, 1)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(result, protocol))
        assert copy == result and type(copy) is KernelResult
        assert (copy.sigma.word, copy.sigma.image, copy.sigma.rs) == (
            result.sigma.word, result.sigma.image, result.sigma.rs)


def test_library_results_round_trip():
    pair = builtin_pair("so5_so4")
    mu = W("5/2,3/2")
    report = euler_verify(pair, mu)
    assert report.passed and report.kernel == dirac_kernel(pair, mu)
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report and copy.passed
    assert type(copy.kernel) is KernelResult
    assert all(type(row) is ShellRow for row in copy.rows)
    for value in (pair.w1, spinor_weights(pair)):
        assert pickle.loads(pickle.dumps(value)) == value
    table = weight_table(build_classical("B", 2), W("1,0"))
    assert table._replace(grid=None).terms is table.terms
