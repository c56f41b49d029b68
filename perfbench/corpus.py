"""Seeded benchmark inputs and the ground-truth verdict gate.

App sizes in the benchmark corpus are lognormal: at scale 1.0 the
filler-class count spans two orders of magnitude, and first-touch time
follows it.  The number of planted patterns (2 to 42, heavy-tailed)
varies independently and drives re-target time, which is sink search
and slicing.  A run's percentiles over a plain ``range(n)`` of indices
therefore move with whichever apps the seed happened to draw.  Each
input stream instead draws a seeded pool of candidate specs and visits
it in a two-way stratified order (:func:`stratified`), so every prefix
spreads evenly over the pool's quantiles of both filler-class count and
pattern count.  The seed still decides every spec; it no longer decides
how many large or pattern-heavy apps a run happens to contain.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.workload import generator
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import AppSpec

#: Candidate specs per stream (a power of two, for the bit reversal).
#: Large enough that the size quantiles a run's largest apps sit at
#: barely move with the seed: with 2048 candidates the largest of
#: ``cold_corpus``'s 100 apps ranged 1670-2001 filler classes over five
#: seeds, and its peak RSS followed it.
POOL_SIZE = 8192
#: Size strata the pool is cut into (a power of two dividing POOL_SIZE):
#: fine enough that a run's largest apps sit at the same size ranks for
#: every seed, coarse enough that each stratum spans the pattern counts.
STRATA = 1024

#: Processes regenerating apps for the verdict gate (after timing).
GATE_WORKERS = 2

#: The seed ``POST /v1/jobs`` resolves ``bench:<index>`` with; the
#: submission has no seed field.
SERVICE_SEED = 2018


def _bit_reversed(value: int, bits: int) -> int:
    return int(format(value, f"0{bits}b")[::-1], 2) if bits else 0


def stratified(items: list, size, detail, strata: int = STRATA) -> list:
    """``items`` in an order whose prefixes cover two rankings evenly.

    The items are ranked by ``size`` and cut into ``strata`` equal strata,
    each ranked by ``detail``.  Item ``j`` of the result comes from
    stratum ``bitrev(j % strata)`` at detail rank
    ``bitrev((j // strata + 13 * (j % strata)) % per)``: consecutive
    items visit the strata in bit-reversed order, and each stratum's
    detail ranks in bit-reversed order from its own offset (13 is odd,
    so the offsets are a permutation, and a stratum's size does not fix
    the detail rank it starts from).  ``len(items)`` and ``strata`` must
    be powers of two, ``strata`` at most ``len(items)``.
    """
    per, extra = divmod(len(items), strata)
    sbits, pbits = strata.bit_length() - 1, per.bit_length() - 1
    if extra or strata != 1 << sbits or per != 1 << pbits:
        raise ValueError("stratified() needs power-of-two counts")
    ranked = sorted(items, key=size)
    bands = [
        sorted(ranked[k * per:(k + 1) * per], key=detail)
        for k in range(strata)
    ]
    return [
        bands[_bit_reversed(j % strata, sbits)][
            _bit_reversed((j // strata + 13 * (j % strata)) % per, pbits)
        ]
        for j in range(len(items))
    ]


def spec_stream(
    seed: int, scale: float, first_index: int = 0,
    pool_size: int = POOL_SIZE, strata: int = STRATA,
) -> list[tuple[int, AppSpec]]:
    """``(bench index, spec)`` pairs for indices ``first_index`` onward,
    stratified by filler-class count and then by pattern count."""
    pool = [
        (index, benchmark_app_spec(index, seed, scale))
        for index in range(first_index, first_index + pool_size)
    ]
    return stratified(
        pool,
        size=lambda item: (item[1].filler_classes, item[0]),
        detail=lambda item: (len(item[1].patterns), item[0]),
        strata=strata,
    )


def expected_findings(truths, rules) -> frozenset:
    """The ``(rule, sink class)`` set BackDroid should report for ``rules``."""
    return frozenset(
        (truth.rule, truth.sink_class)
        for truth in truths
        if truth.expect_backdroid and truth.rule in rules
    )


@dataclass
class VerdictGate:
    """Reported finding sets, checked against regenerated ground truth.

    Operations are recorded during the timed phase (a cheap tuple append)
    and checked after it, so the gate costs no measured time.
    """

    records: list = field(default_factory=list)

    def record(self, label: str, spec: AppSpec, rules, findings) -> None:
        """Remember one completed operation's reported findings."""
        self.records.append((
            label,
            spec,
            tuple(rules),
            frozenset((str(rule), str(cls)) for rule, cls in findings),
        ))

    def mismatches(self, truths_of=None) -> list[str]:
        """One line per operation whose findings differ from the truth.

        ``truths_of(spec)`` returns the generator's ground-truth labels;
        by default each distinct spec is regenerated once, across two
        forked worker processes.  Fork rather than spawn: a spawn pool
        starts multiprocessing's resource tracker, a process that outlives
        the pool and exits only after the benchmark itself has; forked
        workers are all joined when the pool shuts down.
        """
        specs = list(dict.fromkeys(spec for _, spec, _, _ in self.records))
        if truths_of is None:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(GATE_WORKERS, mp_context=context) as pool:
                truths = dict(zip(specs, pool.map(_regenerated_truths, specs)))
        else:
            truths = {spec: truths_of(spec) for spec in specs}
        bad = []
        for label, spec, rules, reported in self.records:
            expected = expected_findings(truths[spec], rules)
            if reported != expected:
                bad.append(
                    f"{label} {spec.package} rules={','.join(rules)}: "
                    f"missing {sorted(expected - reported)} "
                    f"unexpected {sorted(reported - expected)}"
                )
        return bad


def _regenerated_truths(spec: AppSpec):
    return generator.generate_app(spec).truths
