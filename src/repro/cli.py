"""Command-line interface.

``python -m repro <command>`` drives the reproduction without writing
any code:

* ``compare`` — the four-system evaluation (Figures 6 and 7), with
  optional CSV/JSON export;
* ``characterize`` — the per-benchmark design-space table (Table 1);
* ``train`` — train and evaluate the bagged-ANN predictor;
* ``suite`` — list the synthetic EEMBC-analogue benchmarks;
* ``locality`` — miss-ratio curve / working set / reuse distances;
* ``sweep`` — characterise the whole suite with its throughput,
  optionally persisting the store;
* ``campaign`` — replication campaign over a (policy × seed × load)
  grid, optionally process-parallel, with mean ± 95 % CI aggregates;
  ``--stream`` switches the grid to open-system streaming loads;
* ``stream`` — open-system streaming run (:mod:`repro.sim.stream`):
  unbounded generator-backed arrivals in bounded memory, with
  admission control;
* ``dag`` — generate or describe deterministic task-graph workloads
  (:mod:`repro.workloads.dag`); ``campaign --dag`` switches the grid
  to DAG replications with deadline-aware ``edf``/``heft`` policies;
* ``report`` — report on what a run wrote, by the kind of ``PATH``: a
  JSONL trace (summary, decision breakdown, per-core timeline, then
  the replay against the energy-conservation ledger of
  :mod:`repro.validate`; a sampled trace skips the replay), a
  sampled-telemetry JSONL time series (table, ``--prom`` exposition),
  or a directory of the tier-2 suite's ``BENCH_*.json`` artifacts (one
  perf-trajectory table); every file goes through the line reader
  :func:`repro.obs.iter_jsonl`;
* ``reproduce`` — regenerate the full evaluation into ``results/``.

``-v``/``-vv`` (or ``--log-level``) enable the library's diagnostic
logging — cache rebuilds, model-store misses, campaign fan-out — on
stderr.  ``--trace`` and ``--metrics-out`` attach the observability
layer (:mod:`repro.obs`) to ``compare``/``campaign`` runs;
``--validate`` attaches the in-run invariant checks and ledger to
``compare``/``campaign`` runs.  ``--telemetry-out``/``--sampled-trace``/
``--progress`` attach the low-overhead sampled telemetry
(:mod:`repro.obs.telemetry`) to fast-engine ``compare``/``stream`` runs,
and ``campaign --progress`` shows a live replication count.
``--power-cap``/``--power-slack``/``--dvfs`` attach the power-budget /
DVFS axis (:mod:`repro.power`) to ``compare``/``campaign``/``stream``
runs — ``campaign`` sweeps the caps × slacks grid as cells, and
``campaign --dag ... --frontier`` prints the energy / deadline-miss
trade-off frontier.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis import (
    format_table,
    render_figure6,
    render_figure7,
    render_result_summary,
)
from repro.analysis.export import results_to_csv, results_to_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Dynamic Scheduling on Heterogeneous "
            "Multicores' (DATE 2019)"
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="enable diagnostic logging (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "--log-level", metavar="LEVEL", default=None,
        choices=("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"),
        help="explicit log level (overrides -v)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser(
        "compare", help="run the four-system comparison (Figures 6 & 7)"
    )
    compare.add_argument("--jobs", type=int, default=1000,
                         help="number of arrivals (paper: 5000)")
    compare.add_argument("--seed", type=int, default=1)
    compare.add_argument("--interarrival", type=int, default=56_000,
                         help="mean inter-arrival gap in cycles")
    _add_run_args(compare, predictor="ann", hooks=True)
    compare.add_argument("--csv", metavar="PATH",
                         help="write per-system summary CSV")
    compare.add_argument("--json", metavar="PATH",
                         help="write full results JSON")
    compare.add_argument("--summaries", action="store_true",
                         help="print per-system summaries too")
    compare.add_argument("--trace", metavar="PATH",
                         help="write per-policy JSONL event traces "
                              "(policy name is inserted before the "
                              "suffix: out.jsonl -> out.base.jsonl ...)")
    _add_power_args(compare, sweep=False)
    _add_telemetry_args(compare, per_policy=True)

    characterize = sub.add_parser(
        "characterize", help="design-space table for one benchmark"
    )
    characterize.add_argument("benchmark", help="benchmark name")

    train = sub.add_parser(
        "train", help="train and evaluate the bagged-ANN predictor"
    )
    train.add_argument("--variants", type=int, default=12,
                       help="jittered variants per benchmark family")
    train.add_argument("--members", type=int, default=10,
                       help="bagging ensemble size (paper: 30)")
    train.add_argument("--epochs", type=int, default=200)
    train.add_argument("--seed", type=int, default=0)

    sub.add_parser("suite", help="list the synthetic benchmark suite")

    locality = sub.add_parser(
        "locality", help="locality analysis for one benchmark"
    )
    locality.add_argument("benchmark", help="benchmark name")
    locality.add_argument("--line", type=int, default=32,
                          help="line size in bytes for the analysis")
    locality.add_argument("--window", type=int, default=2000,
                          help="working-set window in accesses")

    sweep = sub.add_parser(
        "sweep", help="characterise the whole suite, with its throughput"
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--out", metavar="PATH",
                       help="write the characterisation store JSON here")

    campaign = sub.add_parser(
        "campaign",
        help="replication campaign over a (policy x seed x load) grid",
    )
    campaign.add_argument("--policies", nargs="+",
                          default=["base", "proposed"],
                          choices=("base", "optimal", "energy_centric",
                                   "proposed", "edf", "heft"),
                          help="policies to sweep ('edf'/'heft' order "
                               "the ready queue and need the reference "
                               "engine)")
    campaign.add_argument("--seeds", nargs="+", type=int, default=[0, 1, 2],
                          help="replication seeds (one arrival stream each)")
    campaign.add_argument("--jobs", nargs="+", type=int, default=[1000],
                          help="arrival-stream lengths to sweep")
    campaign.add_argument("--interarrival", nargs="+", type=int,
                          default=[56_000],
                          help="mean inter-arrival gaps (cycles) to sweep")
    _add_run_args(campaign, predictor="oracle", hooks=True)
    campaign.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: one per CPU)")
    campaign.add_argument("--json", metavar="PATH",
                          help="write per-replication results JSON")
    campaign.add_argument("--stream",
                          choices=("poisson", "mmpp", "diurnal"),
                          default=None,
                          help="open-system load axis: stream each "
                               "replication's arrivals through the "
                               "streaming engine (--jobs bounds the "
                               "stream)")
    _add_admission_args(campaign, note=" (--stream only)")
    campaign.add_argument("--dag", action="store_true",
                          help="task-graph load axis: every replication "
                               "generates --jobs task graphs "
                               "(precedence edges + per-task deadlines) "
                               "and runs them on the reference engine")
    _add_dag_shape_args(campaign, prefix="dag-", note=" (--dag only)")
    _add_power_args(campaign, sweep=True)
    campaign.add_argument("--frontier", action="store_true",
                          help="print the energy / deadline-miss "
                               "trade-off frontier after the summary "
                               "(needs --dag for deadline-carrying "
                               "jobs; pairs with a --power-cap sweep)")
    campaign.add_argument("--progress", action="store_true",
                          help="live replication-count progress line on "
                               "stderr (works with any engine/hooks)")

    stream = sub.add_parser(
        "stream",
        help="open-system streaming run: unbounded arrivals in bounded "
             "memory, with admission control",
    )
    stream.add_argument("--policy",
                        choices=("base", "optimal", "energy_centric",
                                 "proposed"),
                        default="proposed")
    stream.add_argument("--process",
                        choices=("poisson", "mmpp", "diurnal"),
                        default="poisson",
                        help="arrival process (default: poisson)")
    stream.add_argument("--max-jobs", type=int, default=None,
                        help="stop generating after this many arrivals")
    stream.add_argument("--duration", type=int, default=None,
                        help="stop generating at this cycle horizon "
                             "(jobs already admitted still complete)")
    stream.add_argument("--interarrival", type=float, default=56_000.0,
                        help="mean inter-arrival gap in cycles")
    stream.add_argument("--seed", type=int, default=1)
    _add_admission_args(stream, note="")
    _add_run_args(stream, predictor="oracle", hooks=False)
    stream.add_argument("--burst-factor", type=float, default=4.0,
                        help="mmpp: burst-phase arrival-rate multiplier")
    stream.add_argument("--amplitude", type=float, default=0.5,
                        help="diurnal: modulation depth in [0, 1)")
    stream.add_argument("--period", type=int, default=20_000_000,
                        help="diurnal: period in cycles")
    stream.add_argument("--json", metavar="PATH",
                        help="write the stream result as JSON")
    _add_power_args(stream, sweep=False)
    _add_telemetry_args(stream, per_policy=False)

    dag = sub.add_parser(
        "dag",
        help="generate or describe a deterministic task-graph workload",
    )
    dag.add_argument("action", choices=("generate", "describe"),
                     help="generate graphs from a seed, or describe an "
                          "existing graph-set JSON")
    dag.add_argument("path", nargs="?",
                     help="graph-set JSON to describe (describe only)")
    dag.add_argument("--out", metavar="PATH",
                     help="write the generated graph-set JSON here "
                          "(generate only)")
    dag.add_argument("--seed", type=int, default=0,
                     help="generation seed (the graph set is a pure "
                          "function of it)")
    dag.add_argument("--count", type=int, default=8,
                     help="number of task graphs to generate")
    _add_dag_shape_args(dag, prefix="", note="")
    dag.add_argument("--interarrival", type=int, default=250_000,
                     help="mean graph inter-arrival gap in cycles")
    dag.add_argument("--name", default="generated",
                     help="graph name prefix (default: generated)")

    report = sub.add_parser(
        "report",
        help="report on what a run wrote: a JSONL trace (with its "
             "ledger replay), a telemetry JSONL time series, or a "
             "directory of BENCH_*.json artifacts",
    )
    report.add_argument("path",
                        help="trace or telemetry JSONL file (see --trace, "
                             "--sampled-trace, --telemetry-out), or a "
                             "directory holding BENCH_*.json artifacts")
    report.add_argument("--json", metavar="PATH",
                        help="write the report as JSON")
    report.add_argument("--prom", metavar="PATH",
                        help="telemetry only: write the last sample as a "
                             "Prometheus-style text exposition")

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate the full evaluation into a results directory",
    )
    reproduce.add_argument("--out", default="results",
                           help="output directory (default: results)")
    reproduce.add_argument("--jobs", type=int, default=5000)
    reproduce.add_argument("--seed", type=int, default=1)
    return parser


def _add_run_args(
    parser: argparse.ArgumentParser, *, predictor: str, hooks: bool,
) -> None:
    """The simulation flag group shared by compare, campaign and stream.

    ``predictor`` is the ``--predictor`` default.  ``hooks`` adds
    ``--engine`` and the full-fidelity hooks.
    """
    parser.add_argument("--predictor", choices=("ann", "oracle"),
                        default=predictor)
    parser.add_argument("--discipline", choices=("fifo", "priority", "edf"),
                        default="fifo")
    if not hooks:
        return
    parser.add_argument("--engine", choices=("auto", "fast", "reference"),
                        default="auto",
                        help="simulation engine: 'fast' is the "
                             "struct-of-arrays loop (bit-identical, "
                             "~10x faster, without the per-event hooks); "
                             "'auto' picks it whenever it can run "
                             "(default: auto; see the engine table in "
                             "docs/performance.md)")
    parser.add_argument("--validate", action="store_true",
                        help="attach the energy-conservation ledger and "
                             "invariant checks to every run")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="attach a metrics registry to every run and "
                             "write the snapshots (per policy, or per "
                             "campaign cell) as JSON")


def _add_admission_args(parser: argparse.ArgumentParser, *, note: str) -> None:
    """The open-system queue flag group shared by stream and campaign."""
    parser.add_argument("--queue-capacity", type=int, default=None,
                        help="ready-queue bound (default: unbounded)" + note)
    parser.add_argument("--admission", choices=("drop", "shed", "block"),
                        default="block",
                        help="admission policy under a full queue "
                             "(default: block)" + note)
    parser.add_argument("--warmup", type=int, default=0,
                        help="exclude jobs arriving before this cycle "
                             "from the latency quantiles" + note)


#: Task-graph shape flags: (name, type, default, help).
_DAG_SHAPE = (
    ("tasks_min", int, 3, "minimum tasks per graph"),
    ("tasks_max", int, 8, "maximum tasks per graph"),
    ("edge_density", float, 0.35,
     "probability of each forward precedence edge"),
    ("deadline_slack", float, 2.5,
     "deadline slack multiplier over the critical path"),
    ("criticality_levels", int, 3, "number of DAG criticality levels"),
)


def _add_dag_shape_args(
    parser: argparse.ArgumentParser, *, prefix: str, note: str
) -> None:
    """The task-graph shape flag group of ``dag generate`` and
    ``campaign --dag`` (``--tasks-min`` / ``--dag-tasks-min`` ...)."""
    for name, kind, default, text in _DAG_SHAPE:
        parser.add_argument(f"--{prefix}{name.replace('_', '-')}",
                            type=kind, default=default,
                            help=f"{text}{note} (default: {default})")


def _dag_shape(args, prefix: str) -> dict:
    """The shape flags as keyword arguments for the DAG generator."""
    return {
        name: getattr(args, prefix + name) for name, _, _, _ in _DAG_SHAPE
    }


def _add_telemetry_args(
    parser: argparse.ArgumentParser, *, per_policy: bool
) -> None:
    """The sampled-telemetry flag group shared by compare and stream."""
    note = (" (the policy name is inserted before the suffix, like "
            "--trace)" if per_policy else "")
    parser.add_argument("--telemetry-out", metavar="PATH",
                        help="append JSONL telemetry samples here"
                             + note)
    parser.add_argument("--telemetry-every", type=int, default=1000,
                        help="completions between samples "
                             "(default: 1000)")
    parser.add_argument("--sampled-trace", metavar="PATH",
                        help="write every Nth dispatch/completion as a "
                             "typed trace event (sampled=true) here"
                             + note)
    parser.add_argument("--sampled-trace-every", type=int, default=1000,
                        help="dispatch/completion sampling stride for "
                             "--sampled-trace (default: 1000)")
    parser.add_argument("--progress", action="store_true",
                        help="live progress line on stderr (jobs/s, "
                             "%% done, p99 wait, queue depth)")


def _add_power_args(
    parser: argparse.ArgumentParser, *, sweep: bool
) -> None:
    """The power-budget / DVFS flag group (single or sweep form)."""
    if sweep:
        parser.add_argument("--power-cap", nargs="+", metavar="NJ",
                            default=None,
                            help="global power-token caps (nJ) to sweep "
                                 "as a grid axis ('inf' = uncapped; an "
                                 "unconstrained baseline cell is always "
                                 "included)")
        parser.add_argument("--power-slack", nargs="+", type=float,
                            default=[0.0], metavar="PCT",
                            help="deadline slack percentages for "
                                 "degraded-dispatch admission, crossed "
                                 "with --power-cap (default: 0)")
    else:
        parser.add_argument("--power-cap", type=float, default=None,
                            metavar="NJ",
                            help="global power-token budget in nJ "
                                 "(unset = unconstrained, bit-identical "
                                 "to a run without the power axis)")
        parser.add_argument("--power-slack", type=float, default=0.0,
                            metavar="PCT",
                            help="deadline slack percentage for "
                                 "degraded-dispatch admission under "
                                 "--power-cap (default: 0)")
    parser.add_argument("--dvfs", nargs="?", const="default", default=None,
                        metavar="SPEC",
                        help="per-core DVFS operating points: bare "
                             "--dvfs uses the built-in nominal/eco/slow "
                             "ladder, or pass 'name:freq:volt,...' "
                             "(nominal 1:1 first, then descending)")


def _parse_dvfs(value: Optional[str]):
    """``--dvfs`` value → :class:`~repro.power.dvfs.DvfsTable` or None."""
    if value is None:
        return None
    from repro.power.dvfs import DEFAULT_DVFS_TABLE, DvfsTable

    if value == "default":
        return DEFAULT_DVFS_TABLE
    return DvfsTable.from_spec(value)


def _parse_power(args):
    """Single-run power flags → normalised config (or ``None``)."""
    from repro.campaign import power_grid

    return power_grid(
        [args.power_cap], slacks=[args.power_slack],
        dvfs=_parse_dvfs(args.dvfs),
    )[0]


def _parse_power_grid(args):
    """Campaign power flags → the ``power_configs`` axis tuple."""
    from repro.campaign import power_grid

    caps = [None]
    for raw in args.power_cap or ():
        try:
            cap = None if raw.lower() in ("inf", "none") else float(raw)
        except ValueError:
            raise ValueError(
                f"--power-cap takes numbers or 'inf', got {raw!r}"
            ) from None
        if cap not in caps:
            caps.append(cap)
    return power_grid(
        caps, slacks=tuple(args.power_slack), dvfs=_parse_dvfs(args.dvfs)
    )


def _power_counts(counts) -> str:
    """The token-pool account of one powered run, on one line."""
    return " ".join(
        [f"{name}={counts[name]:.0f}" for name in
         ("grants", "refunds", "throttled", "degraded", "overdrafts")]
        + [f"consumed={counts['consumed_nj'] / 1e6:.3f} mJ"]
    )


def _per_policy_path(template: str, policy: str) -> Path:
    """``out.jsonl`` + ``base`` → ``out.base.jsonl`` (suffix preserved)."""
    path = Path(template)
    return path.with_name(f"{path.stem}.{policy}{path.suffix}")


def _wants_telemetry(args) -> bool:
    """Whether any sampled-telemetry flag was passed."""
    return bool(args.telemetry_out or args.sampled_trace or args.progress)


def _make_telemetry(args, *, label: str = "", policy: str = None):
    """A :class:`~repro.obs.Telemetry` from the CLI flag group.

    Returns ``None`` when no telemetry flag was passed.  ``policy``
    routes the outputs through :func:`_per_policy_path` for commands
    that run several policies in one invocation.
    """
    if not _wants_telemetry(args):
        return None
    from repro.obs import Telemetry

    def _route(template):
        if template is None:
            return None
        if policy is None:
            return template
        return _per_policy_path(template, policy)

    return Telemetry(
        out=_route(args.telemetry_out),
        trace_out=_route(args.sampled_trace),
        sample_every=args.telemetry_every,
        trace_every=args.sampled_trace_every if args.sampled_trace else 0,
        progress=sys.stderr if args.progress else None,
        label=label,
    )


def _cmd_compare(args) -> int:
    from repro.campaign import campaign_specs, run_spec
    from repro.core import POLICY_NAMES
    from repro.experiment import default_predictor, default_store
    from repro.obs import JsonlRecorder, MetricsRegistry

    try:
        power = _parse_power(args)
        specs = campaign_specs(
            policies=POLICY_NAMES, seeds=(args.seed,),
            loads=((args.jobs, args.interarrival),),
            power_configs=(power,),
            engine=args.engine, telemetry=_wants_telemetry(args),
            hooks=bool(args.trace or args.metrics_out or args.validate),
        )
        telemetry = {
            name: _make_telemetry(args, label=name, policy=name)
            for name in POLICY_NAMES
        }
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if power is not None:
        print(f"power budget: {power.label}")
    store = default_store()
    predictor = default_predictor(
        store, kind=args.predictor, seed=args.seed
    )
    results = {}
    snapshots = {}
    pools = {}
    for spec in specs:
        name = spec.policy
        recorder = None
        registry = MetricsRegistry() if args.metrics_out else None
        if args.trace:
            recorder = JsonlRecorder(_per_policy_path(args.trace, name))
        try:
            results[name], sim, _ = run_spec(
                spec, store, predictor,
                discipline=args.discipline,
                recorder=recorder,
                metrics=registry,
                validate=args.validate,
                telemetry=telemetry[name],
            )
        finally:
            if recorder is not None:
                recorder.close()
            if telemetry[name] is not None:
                telemetry[name].close()
        if registry is not None:
            snapshots[name] = registry.snapshot()
        pools[name] = sim.power_pool

    print(render_figure6(results))
    print()
    print(render_figure7(results))
    if power is not None:
        print()
        print(f"power accounting ({power.label}):")
        for name, pool in pools.items():
            print(f"  {name}: {_power_counts(pool.counts())}")
    if args.summaries:
        for result in results.values():
            print()
            print(render_result_summary(result))
    if args.csv:
        results_to_csv(results, args.csv)
        print(f"\nwrote summary CSV to {args.csv}")
    if args.json:
        results_to_json(results, args.json)
        print(f"wrote results JSON to {args.json}")
    for template, what in ((args.trace, "event traces"),
                           (args.telemetry_out, "telemetry time series"),
                           (args.sampled_trace, "sampled traces")):
        if template:
            names = ", ".join(
                str(_per_policy_path(template, name)) for name in results
            )
            print(f"wrote {what}: {names}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(snapshots, handle, indent=2, sort_keys=True)
        print(f"wrote metrics snapshots to {args.metrics_out}")
    return 0


def _cmd_characterize(args) -> int:
    from repro.characterization import characterize_benchmark
    from repro.workloads import eembc_benchmark

    try:
        spec = eembc_benchmark(args.benchmark)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    char = characterize_benchmark(spec)
    best = char.best_config()
    print(f"{spec.name}: {spec.description}")
    rows = []
    for config in char.configs():
        result = char.result(config)
        rows.append((
            config.name + (" *" if config == best else ""),
            f"{result.stats.miss_rate * 100:.2f}%",
            result.total_cycles,
            f"{result.total_energy_nj / 1e3:.1f}",
        ))
    print(format_table(
        ("config (* = best)", "miss rate", "cycles", "total uJ"), rows
    ))
    return 0


def _cmd_train(args) -> int:
    import numpy as np

    from repro.ann.metrics import class_accuracy
    from repro.ann.training import TrainingConfig
    from repro.characterization import expand_suite
    from repro.core.predictor import AnnPredictor
    from repro.experiment import default_dataset
    from repro.workloads import eembc_suite

    # Bad numbers fail here, not after the dataset build.
    try:
        expand_suite(eembc_suite(), args.variants)
        predictor = AnnPredictor(n_members=args.members, seed=args.seed)
        config = TrainingConfig(epochs=args.epochs, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dataset, store = default_dataset(args.variants, seed=args.seed)
    split = dataset.split(seed=args.seed, by_family=False)
    predictor.fit(split.train, val_dataset=split.val, config=config)
    test_pred = predictor.predict_sizes_kb(split.test.features)
    accuracy = class_accuracy(test_pred, split.test.labels_kb)
    degradations = []
    for spec in eembc_suite():
        char = store.get(spec.name)
        predicted = predictor.predict_size_kb(spec.name, char.counters)
        degradations.append(
            char.energy_degradation(char.best_config_for_size(predicted))
        )
    print(f"dataset: {len(dataset)} samples "
          f"({args.variants} variants/family)")
    print(f"test accuracy: {accuracy:.3f}")
    print(f"mean energy degradation: {np.mean(degradations) * 100:.2f}% "
          f"(paper: < 2%)")
    return 0


def _cmd_locality(args) -> int:
    from repro.cache import CACHE_SIZES_KB, CacheConfig
    from repro.workloads import (
        eembc_benchmark,
        miss_ratio_curve,
        reuse_distance_histogram,
        working_set_curve,
    )

    try:
        spec = eembc_benchmark(args.benchmark)
        # The direct-mapped geometries miss_ratio_curve will build,
        # checked before the trace is generated.
        for size_kb in CACHE_SIZES_KB:
            CacheConfig(size_kb=size_kb, assoc=1, line_b=args.line)
        if args.window <= 0:
            raise ValueError(f"--window must be positive, got {args.window}")
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    trace = spec.generate_trace(seed=0)
    curve = miss_ratio_curve(trace.addresses, line_b=args.line)
    ws = working_set_curve(trace.addresses, window=args.window,
                           line_b=args.line)
    histogram = reuse_distance_histogram(trace.addresses, line_b=args.line)
    total = sum(histogram.values())

    print(f"{spec.name}: {len(trace)} references, "
          f"{trace.unique_lines_64b} distinct 64B lines")
    rows = []
    for size_kb in CACHE_SIZES_KB:
        capacity = size_kb * 1024 // args.line
        captured = sum(
            count for distance, count in histogram.items()
            if 0 <= distance < capacity
        )
        rows.append((
            f"{size_kb} KB",
            f"{curve[size_kb] * 100:.2f}%",
            f"{captured / total * 100:.1f}%",
        ))
    print(format_table(
        ("cache size", "measured miss ratio",
         "reuse mass within capacity"),
        rows,
    ))
    peak = max(d for _, d in ws)
    print(f"peak working set: ~{peak * args.line / 1024:.1f} KB "
          f"per {args.window}-access window")
    return 0


def _cmd_sweep(args) -> int:
    import time

    from repro.cache.config import DESIGN_SPACE
    from repro.characterization import (
        CharacterizationStore,
        StoreMeta,
        characterize_suite,
        design_space_fingerprint,
    )
    from repro.workloads import eembc_suite

    start = time.perf_counter()
    chars = characterize_suite(eembc_suite(), seed=args.seed)
    wall = time.perf_counter() - start
    rows = [
        (name, f"{char.counters.mem_accesses:,}", len(char.results),
         char.best_config().name)
        for name, char in chars.items()
    ]
    print(format_table(
        ("benchmark", "accesses", "configs", "best config"), rows
    ))
    print()
    accesses = sum(char.counters.mem_accesses for char in chars.values())
    replays = sum(len(char.results) for char in chars.values())
    print(
        f"{len(chars)} benchmarks in {wall:.3f}s: "
        f"{len(chars) / wall:.1f} traces/s, "
        f"{accesses / wall:,.0f} accesses/s, "
        f"{replays / wall:.1f} config-replays/s"
    )
    if args.out:
        store = CharacterizationStore(
            chars,
            meta=StoreMeta(
                seed=args.seed,
                configs_fingerprint=design_space_fingerprint(DESIGN_SPACE),
            ),
        )
        store.to_json(args.out)
        print(f"wrote characterisation store to {args.out}")
    return 0


def _cmd_campaign(args) -> int:
    import itertools

    from repro.campaign import DagLoad, StreamLoad, campaign_specs
    from repro.experiment import (
        default_predictor,
        default_store,
        run_campaign,
    )

    if args.frontier and not args.dag:
        print(
            "error: --frontier needs --dag (the frontier plots the "
            "deadline-miss rate, and only the DAG axis carries "
            "deadlines)",
            file=sys.stderr,
        )
        return 2
    try:
        grid = dict(
            policies=tuple(args.policies),
            seeds=tuple(args.seeds),
            loads=list(itertools.product(args.jobs, args.interarrival)),
            power_configs=_parse_power_grid(args),
            engine=args.engine,
            stream=None if args.stream is None else StreamLoad(
                process=args.stream,
                warmup_cycles=args.warmup,
                queue_capacity=args.queue_capacity,
                admission=args.admission,
            ),
            dag=DagLoad(**_dag_shape(args, "dag_")) if args.dag else None,
        )
        campaign_specs(hooks=bool(args.metrics_out or args.validate), **grid)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = default_store()
    predictor = None
    if args.predictor == "ann":
        predictor = default_predictor(store, kind="ann")
    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"\rcampaign: {done}/{total} replications",
                  end="\n" if done == total else "",
                  file=sys.stderr, flush=True)
    result = run_campaign(
        store,
        predictor,
        discipline=args.discipline,
        workers=args.workers,
        collect_metrics=bool(args.metrics_out),
        validate=args.validate,
        progress=progress,
        **grid,
    )
    print(result.summary())
    if args.frontier:
        from repro.analysis import render_frontier

        print()
        try:
            print(render_frontier(result))
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
    if args.json:
        # Wall times are left out so the file is byte-reproducible.
        payload = []
        for replication in result.replications:
            row = dataclasses.asdict(replication)
            del row["seconds"]
            payload.append(row)
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote replication results JSON to {args.json}")
    if args.metrics_out:
        # Every cell field but the headline aggregates and the
        # engine/stream labels.
        payload = [
            {
                key: value
                for key, value in dataclasses.asdict(cell).items()
                if key not in ("metrics", "engine", "stream")
            }
            for cell in result.cells
        ]
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote per-cell metric aggregates to {args.metrics_out}")
    return 0


def _cmd_stream(args) -> int:
    from repro.campaign import StreamLoad, campaign_specs, run_spec
    from repro.core import make_policy
    from repro.experiment import default_predictor, default_store

    if args.max_jobs is None and args.duration is None:
        print(
            "error: bound the stream with --max-jobs and/or --duration",
            file=sys.stderr,
        )
        return 2

    try:
        power = _parse_power(args)
        load = StreamLoad(
            process=args.process,
            warmup_cycles=args.warmup,
            queue_capacity=args.queue_capacity,
            admission=args.admission,
            process_args={
                "poisson": (),
                "mmpp": (("burst_factor", args.burst_factor),),
                "diurnal": (("amplitude", args.amplitude),
                            ("period_cycles", args.period)),
            }[args.process],
            duration_cycles=args.duration,
        )
        (spec,) = campaign_specs(
            policies=(args.policy,), seeds=(args.seed,),
            loads=((args.max_jobs, args.interarrival),),
            power_configs=(power,), stream=load,
            telemetry=_wants_telemetry(args),
        )
        telemetry = _make_telemetry(args, label=f"stream:{args.policy}")
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    store = default_store()
    predictor = None
    if make_policy(args.policy).uses_predictor:
        predictor = default_predictor(
            store, kind=args.predictor, seed=args.seed
        )
    try:
        result, _, _ = run_spec(
            spec, store, predictor,
            discipline=args.discipline,
            telemetry=telemetry,
        )
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if telemetry is not None:
            telemetry.close()

    print(f"ran {args.policy} on a {args.process} stream "
          f"({args.discipline}, admission={result.admission}"
          + (f", capacity={result.queue_capacity}"
             if result.queue_capacity is not None else "")
          + ")")
    print(f"jobs: generated={result.jobs_generated:,} "
          f"completed={result.jobs_completed:,} "
          f"dropped={result.jobs_dropped:,} shed={result.jobs_shed:,} "
          f"(shed rate {result.shed_rate * 100:.1f}%)")
    print(f"makespan: {result.makespan_cycles / 1e6:.2f} Mcycles, "
          f"throughput {result.throughput_jobs_per_mcycle:.2f} "
          f"jobs/Mcycle")
    print(f"energy: {result.total_energy_nj / 1e6:.3f} mJ total "
          f"({result.energy_rate_nj_per_cycle:.2f} nJ/cycle; "
          f"idle {result.idle_energy_nj / 1e6:.3f}, "
          f"dynamic {result.dynamic_energy_nj / 1e6:.3f})")
    utilisation = ", ".join(
        f"core{index}={value * 100:.0f}%"
        for index, value in result.utilisation().items()
    )
    print(f"utilisation: {utilisation}")
    for label, snapshot in (
        ("waiting", result.waiting), ("turnaround", result.turnaround),
    ):
        print(f"{label} (kcyc, {result.observed_jobs:,} observed): "
              f"p50={snapshot['p50'] / 1e3:.1f} "
              f"p90={snapshot['p90'] / 1e3:.1f} "
              f"p99={snapshot['p99'] / 1e3:.1f} "
              f"mean={snapshot['mean'] / 1e3:.1f}")
    if result.power is not None:
        print(f"power ({power.label}): {_power_counts(result.power)}")
    if args.telemetry_out:
        print(f"wrote telemetry time series to {args.telemetry_out}")
    if args.sampled_trace:
        print(f"wrote sampled trace to {args.sampled_trace}")
    if args.json:
        payload = dataclasses.asdict(result)
        del payload["sim_result"]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote stream result JSON to {args.json}")
    return 0


def _cmd_dag(args) -> int:
    from repro.workloads.dag import (
        describe_graphs,
        dump_graphs,
        generate_task_graphs,
        load_graphs,
    )

    if args.action == "describe":
        if not args.path:
            print("error: describe needs a graph-set JSON path",
                  file=sys.stderr)
            return 2
        try:
            graphs = load_graphs(args.path)
        except (OSError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(describe_graphs(graphs))
        return 0

    if args.path:
        print("error: generate takes no positional path (use --out)",
              file=sys.stderr)
        return 2
    try:
        graphs = generate_task_graphs(
            count=args.count,
            seed=args.seed,
            mean_interarrival_cycles=args.interarrival,
            name=args.name,
            **_dag_shape(args, ""),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(describe_graphs(graphs))
    if args.out:
        dump_graphs(graphs, args.out)
        print(f"\nwrote task-graph set to {args.out}")
    return 0


def _cmd_report(args) -> int:
    """Report on a BENCH_*.json directory, a telemetry file or a trace.

    A file is telemetry when its first line is the telemetry header,
    and a trace otherwise; a trace whose first line carries the
    ``sampled`` marker skips the ledger replay.
    """
    from repro.obs import iter_jsonl

    path = Path(args.path)
    try:
        if path.is_dir():
            kind = "bench"
        else:
            with contextlib.closing(iter_jsonl(path)) as records:
                _, first = next(records, (0, {}))
            kind = "telemetry" if first.get("kind") == "telemetry" \
                else "trace"
        if args.prom and kind != "telemetry":
            print(f"error: {path}: --prom applies to telemetry files only",
                  file=sys.stderr)
            return 2
        if kind == "bench":
            return _report_bench(path, args)
        if kind == "telemetry":
            return _report_telemetry(path, args)
        return _report_trace(path, args, sampled=first.get("sampled") is True)
    except OSError as error:  # names the input or an output file
        print(f"error: {error.filename or path}: "
              f"{error.strerror or error}", file=sys.stderr)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
    return 2


def _report_trace(path: Path, args, *, sampled: bool) -> int:
    """The trace report, then the ledger replay of a full trace."""
    from repro.obs import read_trace
    from repro.obs.report import (
        decision_breakdown,
        render_trace_report,
        trace_summary,
    )
    from repro.validate import ValidationError, replay_trace

    events = read_trace(path)
    if not events:
        raise ValueError(f"{path}: contains no events")
    ledger = None
    if not sampled:
        try:
            ledger = replay_trace(events)
        except ValidationError as error:
            print(f"{path}: FAILED {error.check}", file=sys.stderr)
            print(f"  {error.detail}", file=sys.stderr)
            return 1
    print(render_trace_report(events, lenient=sampled))
    print()
    if ledger is None:
        print(f"{path}: ledger not checked (a sampled trace lacks the "
              "events the replay needs)")
    else:
        print(f"{path}: OK")
        print(ledger.summary())
    if args.json:
        payload = {
            "summary": trace_summary(events),
            "decision_breakdown": decision_breakdown(events),
            "ledger": None if ledger is None else dataclasses.asdict(ledger),
        }
        _dump_json(args.json, payload)
        print(f"\nwrote trace report JSON to {args.json}")
    return 0


def _report_telemetry(path: Path, args) -> int:
    from repro.obs import (
        read_telemetry,
        render_prometheus,
        render_telemetry_report,
    )

    header, samples = read_telemetry(path)
    print(render_telemetry_report(header, samples))
    if args.prom:
        if not samples:
            print(f"error: {path}: --prom needs at least one sample",
                  file=sys.stderr)
            return 2
        with open(args.prom, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(samples[-1]))
        print(f"\nwrote Prometheus exposition to {args.prom}")
    if args.json:
        _dump_json(args.json, {"header": header, "samples": samples})
        print(f"wrote telemetry JSON to {args.json}")
    return 0


def _report_bench(path: Path, args) -> int:
    from repro.analysis.bench import (
        bench_checks,
        load_bench_artifacts,
        render_bench_report,
    )

    artifacts = load_bench_artifacts(path)
    if not artifacts:
        print(f"error: {path}: no BENCH_*.json artifacts "
              "(run pytest benchmarks/ to produce them)", file=sys.stderr)
        return 2
    print(render_bench_report(artifacts))
    if args.json:
        payload = [
            dataclasses.asdict(check) | {
                "ok": check.ok, "margin": check.margin,
            }
            for check in bench_checks(artifacts)
        ]
        _dump_json(args.json, payload)
        print(f"\nwrote per-check JSON to {args.json}")
    return 0


def _dump_json(target: str, payload) -> None:
    with open(target, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _cmd_reproduce(args) -> int:
    from repro.reporting import write_report

    try:
        write_report(args.out, n_jobs=args.jobs, seed=args.seed)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_suite(args) -> int:
    from repro.workloads import eembc_suite

    rows = [
        (spec.name, spec.instructions,
         f"~{spec.trace_mix.footprint_bytes // 1024} KB", spec.description)
        for spec in eembc_suite()
    ]
    print(format_table(
        ("benchmark", "instructions", "footprint", "models"), rows
    ))
    return 0


_COMMANDS = {
    "compare": _cmd_compare,
    "characterize": _cmd_characterize,
    "train": _cmd_train,
    "suite": _cmd_suite,
    "locality": _cmd_locality,
    "sweep": _cmd_sweep,
    "campaign": _cmd_campaign,
    "stream": _cmd_stream,
    "dag": _cmd_dag,
    "report": _cmd_report,
    "reproduce": _cmd_reproduce,
}


def _configure_logging(args) -> None:
    """Install a stderr handler for the library's loggers.

    ``--log-level`` wins; otherwise ``-v`` maps to INFO and ``-vv`` (or
    more) to DEBUG.  Without either, logging stays at the library
    default (WARNING), so existing output is unchanged.
    """
    if args.log_level is not None:
        level = getattr(logging, args.log_level)
    elif args.verbose >= 2:
        level = logging.DEBUG
    elif args.verbose == 1:
        level = logging.INFO
    else:
        return
    logging.basicConfig(
        level=level,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
