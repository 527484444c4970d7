"""Tests of the benchmark's own logic.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import itertools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import dirackernel  # noqa: E402
from dirackernel import (Weight, admissible_mu, builtin_pair,  # noqa: E402
                         dirac_kernel)


def test_self_time_on_synthetic_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9];
    # the first child has a grandchild [2, 3].
    spans = [
        (1, "root", 0.0, 10.0, None, 0),
        (2, "a", 1.0, 4.0, 1, 0),
        (3, "b", 3.0, 6.0, 1, 0),
        (4, "c", 8.0, 9.0, 1, 0),
        (5, "d", 2.0, 3.0, 2, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}
    assert tracing.covered_length([(1, 4), (3, 6), (8, 9)]) == 6.0


def test_self_times_sum_to_root_coverage():
    tracer = tracing.Tracer()
    tracer.spans += [(1, "x", 0.0, 5.0, None, 0), (2, "y", 1.0, 2.0, 1, 0),
                     (3, "x", 6.0, 7.0, None, 1)]
    total = tracing.merge_summaries([tracer.summary(wall=8.0)])
    assert total["self_s"] == {"x": 5.0, "y": 1.0}
    assert tracing.accounting_error(total) == ""
    metrics = tracing.layer_metrics(total, overhead_ratio=1.0)
    assert metrics["trace.unwrapped_s"]["value"] == 2.0
    total["wall_s"] = 5.0
    assert "more than the traced wall time" in tracing.accounting_error(total)


@pytest.mark.parametrize("n, q, value, beyond", [
    (100, 50, 50, 50), (100, 90, 90, 10), (103, 90, 93, 10),
    (120, 90, 108, 12), (1, 90, 1, 0), (10, 50, 5, 5)])
def test_percentile_and_its_sample_count(n, q, value, beyond):
    values = list(range(n, 0, -1))  # order must not matter
    assert run.percentile(values, q) == (value, beyond)


def test_percentile_of_no_samples_raises():
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_host_scale_brings_times_to_nominal():
    nominal = hostspeed.NOMINAL_S
    assert hostspeed.scale(nominal) == pytest.approx(1.0)
    assert hostspeed.scale(2 * nominal, 2 * nominal) == pytest.approx(0.5)
    assert hostspeed.scale(nominal, 3 * nominal) == pytest.approx(0.5)


def test_interleaved_bursts_bracket_each_op(monkeypatch):
    slowdowns = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(hostspeed, "burst",
                        lambda: next(slowdowns) * hostspeed.NOMINAL_S)
    host = hostspeed.Interleaved(every=0.0)  # a burst before every op
    assert host.tick() == 1
    host.close()
    assert host.factor(0) == pytest.approx(1 / 1.5)
    assert host.factor(1) == pytest.approx(1 / 3)


def test_signed_permutation_rule_on_a_small_box():
    seen = set()
    for name, pair_spec in spec.PAIRS.items():
        pair = builtin_pair(name)
        for lam in itertools.product(range(-3, 4), repeat=pair_spec.rank):
            mu = spec.mu_from_lambda(name, lam)
            assert pair_spec.admissible(mu) == admissible_mu(pair, Weight(mu))
            if not pair_spec.admissible(mu):
                continue
            status, nu = spec.kernel_rule(name, mu)
            result = dirac_kernel(pair, Weight(mu))
            assert result.status.value == status
            assert (None if result.nu is None else tuple(result.nu)) == nu
            seen.add(status)
    assert seen == {"PLUS", "MINUS", "BOTH_ZERO"}


def test_signed_permutation_rule_by_hand():
    half = spec.HALF
    # so3_so2, mu = 5/2: lambda + delta = 5/2, nu = 2, sign +1, m = 1.
    assert spec.kernel_rule("so3_so2", (5 * half,)) == ("MINUS", (2,))
    # so5_so4, mu = 3/2,-1/2: x = (5/2, -1/2), one sign flip, m = 2.
    assert spec.kernel_rule("so5_so4", (3 * half, -half)) == ("MINUS", (1, 0))
    # so5_so2xso3, mu = 3/2,1: lambda = (0, 1), x = (3/2, 3/2) is singular.
    assert spec.kernel_rule("so5_so2xso3", (3 * half, 1))[0] == "BOTH_ZERO"


def test_same_seed_gives_same_ops():
    assert workloads.theorem_ops(7) == workloads.theorem_ops(7)
    assert workloads.theorem_ops(7) != workloads.theorem_ops(8)
    ops = workloads.theorem_ops(7)
    drawn = {}
    for p, mu in ops:
        assert spec.PAIRS[p].admissible(spec.parse(mu))
        status = spec.kernel_rule(p, spec.parse(mu))[0]
        drawn.setdefault(p, {}).setdefault(status, 0)
        drawn[p][status] += 1
    assert drawn == workloads.THEOREM_COUNTS


def test_every_workload_has_enough_ops():
    assert len(workloads.theorem_ops(1)) >= run.MIN_OPS
    assert len(workloads.oracle_sample()) >= run.MIN_OPS
    assert len(workloads.cli_ladder()) * run.CLI_ROUNDS >= run.MIN_OPS


def test_traced_oracle_op_reaches_decompose_through_dirac():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        # looked up after install, as the worker does
        report = dirackernel.euler_verify(builtin_pair("so5_so4"),
                                          Weight(spec.parse("5/2,-3/2")))
    finally:
        tracer.uninstall()
    assert report.passed
    metrics = tracing.layer_metrics(
        tracing.merge_summaries([tracer.summary(wall=1e9)]), 1.0)
    assert metrics["characters.decompose.calls"]["value"] > 0
    assert metrics["dirac.frobenius_multiplicity.calls"]["value"] == 2
    by_id = {s[0]: s for s in tracer.spans}
    decompose = next(s for s in tracer.spans if s[1] == "characters.decompose")
    chain = []
    parent = decompose[4]
    while parent is not None:
        chain.append(by_id[parent][1])
        parent = by_id[parent][4]
    assert "dirac.euler_verify" in chain
    # uninstall restores the library
    assert not hasattr(sys.modules["dirackernel.dirac"].decompose,
                       "__wrapped__")


def test_missing_target_reports_zero_calls(monkeypatch):
    monkeypatch.delattr(sys.modules["dirackernel.roots"], "weyl_group")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = tracing.layer_metrics(
        tracing.merge_summaries([tracer.summary(wall=0.0)]), 1.0)
    assert metrics["roots.weyl_group.calls"]["value"] == 0
    assert metrics["roots.weyl_group.cache_hit_ratio"]["value"] == 0.0


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert per_layer == tracing.metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
        "peak_rss_mb"}


def test_goldens_cover_the_ladder():
    goldens = run.load_goldens()
    keys = [workloads.ladder_key(argv) for argv in workloads.cli_ladder()]
    assert sorted(keys) == sorted(goldens)
    errors = [k for k in keys if goldens[k]["code"] == 2]
    assert len(errors) == 2 * len(workloads.USAGE_ERRORS)
