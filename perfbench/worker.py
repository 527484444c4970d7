"""One in-process benchmark worker: set up pairs, run ops, check them.

Reads a job as JSON on stdin and writes one JSON result line on stdout::

    {"kind": "kernel" | "euler", "pairs": [...], "ops": [[pair, mu], ...],
     "seconds": s, "spans": path or null, "proc": n}

Set-up is ``import dirackernel`` plus, for every pair, ``builtin_pair``,
``validate_pair``, ``weyl_group``, ``w1_enumerate`` and ``spinor_weights``.
Each op is one ``dirac_kernel`` or ``euler_verify`` call, timed on its own;
its result is checked against ``spec`` after the clock stops.  Set-up and op
times are scaled to the nominal host by reference bursts run right after
set-up and between ops (``hostspeed``); the raw times are reported too.  The op list
runs once, then again while ``seconds`` have not passed since set-up ended.
With ``spans`` set the library is traced and the spans are appended there.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import hostspeed
import spec
import tracing


def check_kernel(pair: str, mu, result) -> str:
    status, nu = spec.kernel_rule(pair, mu)
    got_nu = None if result.nu is None else tuple(result.nu)
    if (result.status.value, got_nu) != (status, nu):
        return (f"dirac_kernel({pair}, {spec.fmt(mu)}) gave "
                f"{result.status.value} nu={result.nu}, expected {status} "
                f"nu={None if nu is None else spec.fmt(nu)}")
    return ""


def check_euler(pair: str, mu, report) -> str:
    if not report.passed:
        return f"euler_verify({pair}, {spec.fmt(mu)}) failed: {report.failures}"
    signed = {tuple(w): c for w, c in report.signed_sum}
    if signed != spec.expected_signed_sum(pair, mu):
        return (f"euler_verify({pair}, {spec.fmt(mu)}) collapsed to "
                f"{report.signed_sum}, expected "
                f"{spec.expected_signed_sum(pair, mu)}")
    return check_kernel(pair, mu, report.kernel)


def main() -> None:
    job = json.load(sys.stdin)
    tracer = tracing.Tracer() if job["spans"] else None

    # Set-up in steps, import then one pair at a time, each scaled by the
    # reference bursts either side of it; the first burst follows the import.
    start = time.perf_counter()
    import dirackernel as dk
    setup_raw = time.perf_counter() - start
    bursts = [hostspeed.burst()]
    setup_s = setup_raw * hostspeed.scale(bursts[0])
    if tracer:
        tracer.install()
    pairs = {}
    for name in job["pairs"]:
        start = time.perf_counter()
        pair = dk.builtin_pair(name)
        dk.validate_pair(pair)
        dk.weyl_group(pair.root_system)
        dk.w1_enumerate(pair)
        dk.spinor_weights(pair)
        pairs[name] = pair
        step = time.perf_counter() - start
        bursts.append(hostspeed.burst())
        setup_raw += step
        setup_s += step * hostspeed.scale(*bursts[-2:])

    call, check = ((dk.dirac_kernel, check_kernel) if job["kind"] == "kernel"
                   else (dk.euler_verify, check_euler))
    ops = [(name, spec.parse(mu), pairs[name], dk.Weight.parse(mu))
           for name, mu in job["ops"]]
    raw, failures = [], []  # raw: per pass, (seconds, burst index) per op
    host = hostspeed.Interleaved()
    deadline = time.perf_counter() + job["seconds"]
    while not raw or time.perf_counter() < deadline:
        latencies = []
        for i, (name, mu, pair, weight) in enumerate(ops):
            if tracer:
                tracer.op = i
            k = host.tick()
            t0 = time.perf_counter()
            try:
                result = call(pair, weight)
            except Exception as exc:  # an op that raises counts as failed
                latencies.append((time.perf_counter() - t0, k))
                failures.append(f"{name} {spec.fmt(mu)}: {exc!r}")
                continue
            latencies.append((time.perf_counter() - t0, k))
            problem = check(name, mu, result)
            if problem:
                failures.append(problem)
        raw.append(latencies)
    host.close()
    passes = [[s * host.factor(k) for s, k in latencies] for latencies in raw]

    wall = setup_raw + sum(s for latencies in raw for s, _ in latencies)
    out = {"setup_s": setup_s, "passes": passes, "failures": failures,
           "scaled_wall_s": setup_s + sum(map(sum, passes)),
           "burst_s": statistics.median(host.bursts)}
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary(wall)
        tracer.write_spans(job["spans"], job["proc"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
