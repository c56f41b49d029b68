"""The benchmark's verdict gate and input stratification.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from dataclasses import replace

from repro.api.request import AnalysisRequest
from repro.api.session import AnalysisSession
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import generate_app

from perfbench.corpus import VerdictGate, expected_findings, stratified

RULES = AnalysisRequest().rules


def _gate_over_real_run(index: int = 7) -> tuple[VerdictGate, object]:
    spec = benchmark_app_spec(index, 2018, scale=0.05)
    report = AnalysisSession(generate_app(spec).apk).run().report
    gate = VerdictGate()
    gate.record(
        "app", spec, RULES,
        [(f.rule, f.method.class_name) for f in report.findings],
    )
    return gate, spec


def test_gate_accepts_the_programs_verdicts():
    gate, spec = _gate_over_real_run()
    assert expected_findings(generate_app(spec).truths, RULES)
    assert gate.mismatches() == []


def test_gate_trips_on_a_tampered_expected_set():
    gate, _ = _gate_over_real_run()

    def missing_one(spec):
        truths = generate_app(spec).truths
        first = next(
            i for i, t in enumerate(truths)
            if t.expect_backdroid and t.rule in RULES
        )
        return truths[:first] + truths[first + 1:]

    def one_extra(spec):
        truths = generate_app(spec).truths
        template = next(t for t in truths if t.rule in RULES)
        return truths + [replace(
            template, sink_class="com.example.Planted", expect_backdroid=True
        )]

    for tampered in (missing_one, one_extra):
        mismatches = gate.mismatches(truths_of=tampered)
        assert len(mismatches) == 1
        assert "com.bench.app007" in mismatches[0]


def test_stratified_prefixes_cover_both_rankings_evenly():
    grid = [(size, detail) for size in range(8) for detail in range(8)]
    order = stratified(grid, size=lambda v: v, detail=lambda v: v[1], strata=8)
    assert sorted(order) == grid
    for start in range(0, 64, 8):
        block = order[start:start + 8]
        # One item from every size stratum, and every detail rank once.
        assert sorted(size for size, _ in block) == list(range(8))
        assert sorted(detail for _, detail in block) == list(range(8))
