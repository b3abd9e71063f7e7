"""Command-line interface: the paper's terminal console (Fig. 6).

Subcommands mirror the operations the paper exposes through its console
and dashboard, wired through the declarative scenario API:

- ``run`` — synthetic-workload simulation with the end-of-run report
  (``--live`` streams per-quantum status lines while it runs;
  ``--cooling-backend`` picks the fused backend — the plant held in the
  batched plant kernel — or the reference component-graph oracle),
- ``profile`` — per-phase wall-time profile of the engine hot path
  (schedule / power / cooling / collect), emitted as JSON,
- ``verify`` — the Table III verification points (an experiment suite),
- ``replay`` — replay a saved telemetry dataset (native format),
- ``whatif`` — the section IV-3 counterfactual studies,
- ``suite`` — run a JSON-described scenario suite, optionally across
  worker processes, and print the comparison table,
- ``sweep`` — sweep one scenario parameter over a value grid,
- ``campaign`` — persisted sweep campaigns: ``campaign run`` executes a
  grid/LHS sweep into an artifact directory (skipping already-completed
  cells; ``--fidelity surrogate`` runs every cell on the fast path, and
  ``--refine-top K`` turns it into a multi-fidelity campaign: surrogate
  screen, then full-fidelity refinement of the top K cells), ``campaign
  resume`` finishes an interrupted one, and ``campaign compare`` reloads
  stored campaigns — without re-simulating — into comparison tables and
  heat maps,
- ``surrogate`` — the fast-path model store: ``surrogate fit`` trains a
  bundle (from L4 sampling or a persisted campaign) and ``surrogate
  eval`` audits a saved bundle against full fidelity,
- ``serve`` / ``submit`` / ``watch`` / ``jobs`` — the twin service
  (:mod:`repro.service`): ``serve`` runs the asyncio job server (worker
  pool, warm-plant cache, persisted result store), ``submit`` posts a
  scenario JSON (``--watch`` streams it), ``watch`` streams a job's
  per-quantum records over NDJSON or websocket, and ``jobs`` tabulates
  the server's job list,
- ``workload`` — the parametric workload-generator subsystem
  (:mod:`repro.workloads`): ``workload list`` catalogs the registered
  generators with their typed parameter schemas, ``workload preview``
  generates one workload and renders its arrival / wet-bulb / grid
  trace as an ASCII chart (plus its content-address spec-SHA) without
  simulating anything, and ``workload sweep`` runs a stress-suite
  campaign over a generator grid — resumable, optionally
  surrogate-screened (``--screen-top K``), with per-cell invariant
  validation written to ``validation.json``,
- ``scene`` — emit the descriptive-twin scene graph as JSON,
- ``autocsm`` — print the generated cooling-model inventory,
- ``systems`` — list bundled machine specifications.

Entry point::

    python -m repro.cli <subcommand> [options]

(or the ``repro`` console script when the package is installed).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from repro.config.loader import builtin_system_names
from repro.cooling.autocsm import autocsm_report
from repro.core.stats import compute_statistics
from repro.exceptions import ExaDigiTError
from repro.fastpath import (
    MultiFidelityCampaign,
    SurrogateBundle,
    fit_bundle,
    fit_bundle_from_store,
)
from repro.fastpath.multifidelity import with_fidelity
from repro.scenarios import (
    Campaign,
    CampaignStore,
    DigitalTwin,
    ExperimentSuite,
    GridSweepScenario,
    LatinHypercubeSweepScenario,
    ReplayScenario,
    Scenario,
    SweepScenario,
    SyntheticScenario,
    VerificationScenario,
    WhatIfScenario,
)
from repro.viz.campaign import (
    CAMPAIGN_METRICS,
    campaign_comparison,
    campaign_heatmap,
    fidelity_error_heatmap,
)
from repro.viz.dashboard import LiveDashboard, render_dashboard
from repro.viz.export import StepStreamWriter, export_result
from repro.viz.scene import build_scene


def _add_system_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--system",
        default="frontier",
        help="builtin system name or path to a JSON spec (default: frontier)",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_system_arg(parser)
    parser.add_argument(
        "--hours", type=float, default=2.0, help="simulated hours (default 2)"
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--no-cooling",
        action="store_true",
        help="skip the cooling model (paper: 3x faster replays)",
    )
    parser.add_argument(
        "--export",
        metavar="PATH",
        help="write the run series to PATH.json",
    )


def _add_workers_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for scenario execution: serial cells "
        "spread over them as one-cell lane groups (default 1 = in-process)",
    )


def _add_execution_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--execution",
        choices=("serial", "batched"),
        default="serial",
        help="how cells group into batched-engine lane groups: one "
        "group per cell (serial), or one vectorized group of all "
        "pending cells (batched; in-process, --workers ignored); "
        "bit-identical results",
    )


def cmd_run(args: argparse.Namespace) -> int:
    twin = DigitalTwin(
        args.system,
        fidelity=args.fidelity,
        surrogates=args.surrogates,
        cooling_backend=args.cooling_backend,
    )
    scenario = SyntheticScenario(
        duration_s=args.hours * 3600.0,
        seed=args.seed,
        with_cooling=not args.no_cooling,
    )
    callbacks = []
    if args.live:
        live = LiveDashboard(every=max(1, int(args.hours * 6)))

        def live_progress(step):
            line = live.update(step)
            if line is not None:
                print(line, flush=True)

        callbacks.append(live_progress)
    writer = None
    if args.export_steps:
        writer = StepStreamWriter(args.export_steps)
        callbacks.append(writer)
    progress = (
        (lambda step: [cb(step) for cb in callbacks]) if callbacks else None
    )
    reg = None
    if getattr(args, "verbose", False):
        from repro.obs import MetricsRegistry, use_registry

        reg = MetricsRegistry()
    try:
        if reg is not None:
            with use_registry(reg):
                outcome = scenario.run(twin, progress=progress)
        else:
            outcome = scenario.run(twin, progress=progress)
    finally:
        if writer is not None:
            writer.close()
    result = outcome.result
    print(outcome.statistics.report())
    print()
    print(render_dashboard(result, title=twin.spec.name))
    if reg is not None:
        steps = int(reg.value("repro_engine_steps_total") or 0)
        evals = int(reg.value("repro_engine_power_evals_total") or 0)
        print(f"\nengine work: steps={steps} power_evals={evals}")
    if args.export:
        path = export_result(result, args.export)
        print(f"\nseries written to {path}")
    if writer is not None:
        print(f"\n{writer.count} step records streamed to {writer.path}")
    return 0


def _snapshot_value(metrics: dict, name: str, **labels) -> float:
    """One sample's value out of a registry ``snapshot()`` document."""
    family = metrics.get(name)
    if not family:
        return 0.0
    for sample in family["samples"]:
        if not labels or sample["labels"] == labels:
            return float(sample.get("value", 0.0))
    return 0.0


def cmd_profile(args: argparse.Namespace) -> int:
    import json

    scenario = SyntheticScenario(
        duration_s=args.hours * 3600.0,
        seed=args.seed,
        with_cooling=not args.no_cooling,
    )
    mode = getattr(args, "mode", "direct")
    repeat = args.repeat
    if mode == "serve" and args.cooling_backend != "fused":
        # Service workers run fused twins.
        raise ExaDigiTError(
            "--mode serve profiles the fused plant kernel; profile "
            "--cooling-backend reference with --mode direct or batched"
        )
    if repeat < 1:
        raise ExaDigiTError("--repeat must be >= 1")
    docs = []
    for _ in range(repeat):
        doc, profiler = _profile_run(args, scenario, mode)
        docs.append(doc)
    if repeat > 1:
        doc["repeat"] = _repeat_summary(docs)
    doc["mode"] = mode
    doc["hours"] = args.hours
    doc["cooling_backend"] = (
        None if args.no_cooling else args.cooling_backend
    )
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if repeat > 1:
            print(_repeat_table(doc["repeat"]))
        elif mode != "serve":
            print(profiler.summary())
        print(f"\nprofile written to {args.out}")
    else:
        print(text)
    return 0


def _profile_run(args, scenario, mode):
    """One profiled run of ``scenario``: its profile document and the
    :class:`~repro.core.profiling.PhaseProfiler` (None when serving)."""
    from time import perf_counter

    profiler = None
    if mode in ("direct", "batched"):
        from repro.core.profiling import PhaseProfiler

        profiler = PhaseProfiler()
    if mode == "direct":
        twin = DigitalTwin(
            args.system, cooling_backend=args.cooling_backend
        )
        plan = scenario.plan(twin)
        engine = scenario.build_engine(twin, plan)
        engine.profiler = profiler
        engine.run(plan.jobs, plan.duration_s, wetbulb=plan.wetbulb)
        doc = profiler.as_dict()
        doc["system"] = twin.spec.name
    elif mode == "batched":
        # The same scenario through BatchedEngine: the lane loop's phase
        # split, plus the registry counters the engines fold in.
        from repro.batch import BatchedEngine
        from repro.obs import MetricsRegistry, use_registry

        twin = DigitalTwin(args.system, cooling_backend=args.cooling_backend)
        with use_registry(MetricsRegistry()) as reg:
            engine = BatchedEngine([scenario], twin)
            engine.profiler = profiler
            engine.run()
        metrics = reg.snapshot()
        doc = profiler.as_dict()
        doc.update({
            "lane_steps": int(
                _snapshot_value(metrics, "repro_batch_lane_steps_total")
            ),
            "shared_lanes": engine.shared_lanes,
            "padded_lane_steps": int(
                _snapshot_value(
                    metrics, "repro_batch_padded_lane_steps_total"
                )
            ),
            "engine_steps": int(
                _snapshot_value(metrics, "repro_engine_steps_total")
            ),
            "system": twin.spec.name,
        })
    else:  # serve: one ephemeral server, observed through /statusz
        from repro.service import TwinClient, TwinServer

        with TwinServer(args.system, workers=1, port=0) as server:
            client = TwinClient(server.url)
            t0 = perf_counter()
            job = client.submit(scenario.to_dict(), use_cache=False)
            client.wait(job["id"])
            wall = perf_counter() - t0
            metrics = client.statusz()["metrics"]
        doc = {
            "wall_s": round(wall, 6),
            "jobs_executed": int(
                _snapshot_value(
                    metrics,
                    "repro_service_jobs_finished_total",
                    state="done",
                )
            ),
            "steps_streamed": int(
                _snapshot_value(
                    metrics, "repro_service_steps_streamed_total"
                )
            ),
            "job_wall_s_sum": round(
                float(
                    (metrics.get("repro_service_job_seconds") or {})
                    .get("samples", [{}])[0]
                    .get("sum", 0.0)
                ),
                6,
            ),
            "warm_hits": int(
                _snapshot_value(metrics, "repro_service_warm_hits_total")
            ),
            "system": server.spec.name,
        }
    return doc, profiler


def _repeat_summary(docs: list[dict]) -> dict:
    """Median and spread (max - min) of the wall time and of each
    phase's seconds over repeated profile documents (a phase missing
    from a run counts 0 s there)."""
    import statistics

    names = dict.fromkeys(
        name for doc in docs for name in doc.get("phases", {})
    )
    series = {"wall_s": [doc["wall_s"] for doc in docs]}
    for name in names:
        series[name] = [
            doc.get("phases", {}).get(name, {}).get("total_s", 0.0)
            for doc in docs
        ]
    rows = {
        name: {
            "median_s": round(statistics.median(values), 6),
            "spread_s": round(max(values) - min(values), 6),
            "runs_s": values,
        }
        for name, values in series.items()
    }
    return {"runs": len(docs), "wall_s": rows.pop("wall_s"), "phases": rows}


def _repeat_table(summary: dict) -> str:
    """Text table of :func:`_repeat_summary`."""
    lines = [f"{'phase':<16} {'median s':>10} {'spread s':>10}"]
    lines.append("-" * len(lines[0]))
    for name, row in [("wall", summary["wall_s"]), *summary["phases"].items()]:
        lines.append(
            f"{name:<16} {row['median_s']:>10.4f} {row['spread_s']:>10.4f}"
        )
    lines.append(f"runs={summary['runs']}")
    return "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> int:
    suite = ExperimentSuite(args.system)
    for point in ("idle", "hpl", "peak"):
        suite.add(
            VerificationScenario(
                name=point, point=point, duration_s=600.0, with_cooling=False
            )
        )
    outcome = suite.run(workers=args.workers)
    print(f"{'point':8s} {'MW':>8s}")
    for r in outcome:
        print(f"{r.name:8s} {r.result.mean_power_w / 1e6:8.2f}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    twin = DigitalTwin(args.system)
    scenario = ReplayScenario(
        dataset_path=args.dataset,
        duration_s=args.hours * 3600.0,
        seed=args.seed,
        with_cooling=not args.no_cooling,
    )
    outcome = scenario.run(twin)
    print(compute_statistics(outcome.result, twin.spec.economics).report())
    if args.export:
        path = export_result(outcome.result, args.export)
        print(f"\nseries written to {path}")
    return 0


def cmd_whatif(args: argparse.Namespace) -> int:
    # What-ifs compare conversion chains; they run uncoupled (the
    # paper's fast path) regardless of --no-cooling, as before.
    scenario = WhatIfScenario(
        modification=args.scenario,
        duration_s=args.hours * 3600.0,
        seed=args.seed,
        with_cooling=False,
    )
    outcome = scenario.run(DigitalTwin(args.system))
    print(outcome.comparison.report())
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    suite = ExperimentSuite.from_file(
        args.scenarios, system=args.system
    )
    outcome = suite.run(
        workers=args.workers,
        progress=lambda s, done, total: print(
            f"[{done}/{total}] {s.name}", file=sys.stderr, flush=True
        ),
    )
    print(outcome.comparison_table())
    _export_suite(outcome, args.export)
    return 0


def _export_suite(outcome, prefix: str | None) -> None:
    """Write each scenario's series to ``prefix-<name>.json``."""
    if not prefix:
        return
    for r in outcome:
        if r.result is not None:
            # Sweep children are named "base/param=value"; flatten the
            # separators and dots so every artifact lands beside the
            # prefix (export_result's .with_suffix would truncate at a
            # dot, silently overwriting e.g. wetbulb 22.5 with 22.75).
            safe = (
                r.name.replace("/", "-").replace("=", "-").replace(".", "_")
            )
            export_result(r.result, f"{prefix}-{safe}")
    print(f"\nper-scenario series written to {prefix}-<name>.json")


def _parse_value(raw: str):
    """Parse one CLI sweep value: bool, int, float, or bare string."""
    raw = raw.strip()
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            return raw


def cmd_sweep(args: argparse.Namespace) -> int:
    base = Scenario.from_dict(
        {
            "kind": args.kind,
            "name": args.kind,
            "duration_s": args.hours * 3600.0,
            "seed": args.seed,
            "with_cooling": not args.no_cooling,
        }
    )
    values = [_parse_value(raw) for raw in args.values.split(",")]
    sweep = SweepScenario(
        name=f"{args.kind}-{args.param}",
        base=base,
        parameter=args.param,
        values=tuple(values),
    )
    suite = ExperimentSuite(args.system, [sweep])
    outcome = suite.run(workers=args.workers)
    print(outcome.comparison_table())
    _export_suite(outcome, args.export)
    return 0


def _parse_grid(text: str) -> dict[str, tuple]:
    """Parse ``"wetbulb_c=12,15,18;seed=0,1,2,3"`` into a grid mapping."""
    grid: dict[str, tuple] = {}
    for axis in text.split(";"):
        axis = axis.strip()
        if not axis:
            continue
        if "=" not in axis:
            raise ExaDigiTError(
                f"bad grid axis {axis!r}; expected param=v1,v2,..."
            )
        name, _, values = axis.partition("=")
        grid[name.strip()] = tuple(
            _parse_value(v) for v in values.split(",") if v.strip()
        )
    if not grid:
        raise ExaDigiTError("empty --grid specification")
    return grid


def _parse_ranges(text: str) -> dict[str, tuple]:
    """Parse ``"wetbulb_c=5.0:25;seed=0:100"`` into an LHS ranges mapping.

    Bounds keep the type they are written with: a bound containing a
    decimal point is a float, a bare integer stays an integer — and an
    axis whose bounds are *both* integers samples integers (see
    :class:`~repro.scenarios.library.LatinHypercubeSweepScenario`).
    Write ``5.0:25`` for a continuous axis, ``0:100`` for a discrete
    one like ``seed``.
    """
    ranges: dict[str, tuple] = {}
    for axis in text.split(";"):
        axis = axis.strip()
        if not axis:
            continue
        name, _, bounds = axis.partition("=")
        low, sep, high = bounds.partition(":")
        if "=" not in axis or not sep:
            raise ExaDigiTError(
                f"bad LHS axis {axis!r}; expected param=low:high"
            )
        ranges[name.strip()] = (_parse_value(low), _parse_value(high))
    if not ranges:
        raise ExaDigiTError("empty --lhs specification")
    return ranges


def _campaign_scenarios(args: argparse.Namespace) -> tuple[list, object]:
    """Build the declared scenario list (and system) for ``campaign run``."""
    if args.scenarios:
        suite = ExperimentSuite.from_file(args.scenarios, system=args.system)
        return suite.scenarios, suite.twin
    base = Scenario.from_dict(
        {
            "kind": args.kind,
            "name": args.kind,
            "duration_s": args.hours * 3600.0,
            "seed": args.seed,
            "with_cooling": not args.no_cooling,
        }
    )
    if args.grid:
        sweep: Scenario = GridSweepScenario(
            name=f"{args.kind}-grid", base=base, grid=_parse_grid(args.grid)
        )
    elif args.lhs:
        sweep = LatinHypercubeSweepScenario(
            name=f"{args.kind}-lhs",
            base=base,
            ranges=_parse_ranges(args.lhs),
            samples=args.samples,
            seed=args.seed,
        )
    else:
        raise ExaDigiTError(
            "campaign run needs --grid, --lhs, or --scenarios FILE"
        )
    return [sweep], args.system or "frontier"


def _fidelity_scenarios(args: argparse.Namespace) -> tuple[list, object]:
    """Declared campaign scenarios with the --fidelity knob applied."""
    scenarios, system = _campaign_scenarios(args)
    fidelity = getattr(args, "fidelity", None)
    if fidelity:
        scenarios = [with_fidelity(s, fidelity) for s in scenarios]
    return scenarios, system


def _campaign_progress(scenario, done: int, total: int) -> None:
    print(f"[{done}/{total}] {scenario.name}", file=sys.stderr, flush=True)


def cmd_campaign_run(args: argparse.Namespace) -> int:
    # An existing multi-fidelity directory always resumes as one, even
    # if --refine-top is omitted this time — a plain campaign must
    # never be created inside a multi-fidelity root.
    if args.refine_top is not None or MultiFidelityCampaign.exists(
        args.directory
    ):
        return _run_multifidelity(args)
    if CampaignStore.exists(args.directory):
        if args.fidelity:
            raise ExaDigiTError(
                f"campaign {args.directory} already exists with its cell "
                "fidelities frozen in the manifest; --fidelity only "
                "applies at creation (use a new directory)"
            )
        print(
            f"campaign exists at {args.directory}; resuming "
            "(completed cells are skipped)",
            file=sys.stderr,
        )
        campaign = Campaign.open(args.directory, surrogates=args.surrogates)
    else:
        scenarios, system = _fidelity_scenarios(args)
        campaign = Campaign.create(
            args.directory,
            scenarios,
            system=system,
            name=args.name,
            surrogates=args.surrogates,
        )
    outcome = campaign.run(
        workers=args.workers,
        progress=_campaign_progress,
        execution=args.execution,
    )
    print(outcome.comparison_table())
    print(f"\nartifacts: {campaign.path}", file=sys.stderr)
    return 0


def _run_multifidelity(args: argparse.Namespace) -> int:
    """``campaign run --refine-top K``: screen → rank → refine."""
    if args.fidelity == "full":
        raise ExaDigiTError(
            "--refine-top screens at surrogate fidelity and refines at "
            "full; it cannot be combined with --fidelity full"
        )
    if MultiFidelityCampaign.exists(args.directory):
        print(
            f"multi-fidelity campaign exists at {args.directory}; resuming",
            file=sys.stderr,
        )
        mf = MultiFidelityCampaign.open(
            args.directory, surrogates=args.surrogates
        )
    else:
        scenarios, system = _campaign_scenarios(args)
        mf = MultiFidelityCampaign.create(
            args.directory,
            scenarios,
            system=system,
            top_k=args.refine_top,
            metric=args.metric,
            objective=args.objective,
            name=args.name,
            surrogates=args.surrogates,
        )
    result = mf.run(workers=args.workers, progress=_campaign_progress)
    if not result.complete:
        print("campaign interrupted before refinement; resume to finish")
        return 0
    print(result.report())
    for scenario in mf.screen_campaign().store.declared_scenarios():
        if isinstance(scenario, GridSweepScenario):
            print()
            print(
                fidelity_error_heatmap(
                    result.screen,
                    result.refined,
                    scenario,
                    metric=mf.metric,
                )
            )
    print(f"\nartifacts: {mf.path}", file=sys.stderr)
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    if MultiFidelityCampaign.exists(args.directory):
        mf = MultiFidelityCampaign.open(
            args.directory, surrogates=args.surrogates
        )
        print(f"resuming multi-fidelity {mf.name}", file=sys.stderr)
        result = mf.run(workers=args.workers, progress=_campaign_progress)
        print(
            result.report()
            if result.complete
            else "still incomplete; resume again to finish"
        )
        return 0
    campaign = Campaign.open(args.directory, surrogates=args.surrogates)
    pending = len(campaign.pending())
    total = len(campaign.cells)
    print(
        f"resuming {campaign.store.name}: {total - pending}/{total} cells "
        "already done",
        file=sys.stderr,
    )
    outcome = campaign.run(
        workers=args.workers,
        progress=_campaign_progress,
        execution=args.execution,
    )
    print(outcome.comparison_table())
    return 0


def cmd_surrogate_fit(args: argparse.Namespace) -> int:
    if args.from_campaign:
        store = CampaignStore.open(args.from_campaign)
        bundle = fit_bundle_from_store(
            store,
            cooling=not args.no_cooling,
            power_samples=args.power_samples,
            cooling_degree=args.cooling_degree,
            seed=args.seed,
        )
        system_name = store.system_spec().name
    else:
        twin = DigitalTwin(args.system)
        bundle = fit_bundle(
            twin.spec,
            cooling=not args.no_cooling,
            power_samples=args.power_samples,
            cooling_grid=args.grid,
            cooling_degree=args.cooling_degree,
            settle_s=args.settle,
            seed=args.seed,
        )
        system_name = twin.spec.name
    out = args.out or f"models/{system_name}.json"
    path = bundle.save(out)
    print(bundle.describe())
    print(f"\nbundle written to {path}")
    return 0


def cmd_surrogate_eval(args: argparse.Namespace) -> int:
    import time as _time

    twin = DigitalTwin(args.system)
    bundle = SurrogateBundle.load(args.bundle, spec=twin.spec)
    print(bundle.describe())
    with_cooling = bundle.has_cooling and not args.no_cooling
    scenario = SyntheticScenario(
        duration_s=args.hours * 3600.0,
        seed=args.seed,
        with_cooling=with_cooling,
    )
    t0 = _time.perf_counter()
    full = scenario.run(twin)
    full_s = _time.perf_counter() - t0
    fast_twin = DigitalTwin(
        twin.spec, fidelity="surrogate", surrogates=bundle
    )
    t0 = _time.perf_counter()
    fast = scenario.run(fast_twin)
    fast_s = _time.perf_counter() - t0
    full_m, fast_m = full.metrics(), fast.metrics()
    print()
    print(f"{'metric':14s} {'full':>10s} {'surrogate':>10s} {'abs err':>10s}")
    for key in full_m:
        err = abs(full_m[key] - fast_m[key])
        print(
            f"{key:14s} {full_m[key]:10.4f} {fast_m[key]:10.4f} {err:10.4f}"
        )
    print(
        f"\nwall time: full {full_s:.2f} s, surrogate {fast_s * 1e3:.1f} ms "
        f"-> {full_s / fast_s:.0f}x speedup"
    )
    return 0


def cmd_campaign_compare(args: argparse.Namespace) -> int:
    stores = [CampaignStore.open(d) for d in args.directories]
    loaded = [(store.name, store.load()) for store in stores]
    if len(loaded) == 1:
        print(loaded[0][1].comparison_table())
    else:
        print(campaign_comparison(loaded, metric=args.metric))
    if args.heatmap:
        for store, (label, outcome) in zip(stores, loaded):
            for scenario in store.declared_scenarios():
                if isinstance(scenario, GridSweepScenario):
                    print()
                    print(f"campaign {label}:")
                    print(
                        campaign_heatmap(
                            outcome, scenario, metric=args.metric
                        )
                    )
    return 0


DEFAULT_SERVICE_URL = "http://127.0.0.1:8787"


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service import TwinServer

    server = TwinServer(
        args.system,
        host=args.host,
        port=args.port,
        workers=args.workers,
        store=args.store,
        fidelity=args.fidelity,
        surrogates=args.surrogates,
        max_attempts=args.max_attempts,
        execution=args.execution,
        metrics=args.metrics,
        history_interval=args.history_interval,
        alert_rules=args.alert_rules,
        chaos=args.chaos,
        max_queue_depth=args.max_queue_depth,
        max_inflight_per_client=args.max_inflight,
        drain_grace_s=args.drain_grace_s,
    )

    def banner(srv) -> None:
        # SIGTERM drains gracefully: stop admitting, finish running
        # jobs, checkpoint the pending queue, then exit.  A restart on
        # the same --store re-enqueues the checkpointed jobs.
        with contextlib.suppress(NotImplementedError, RuntimeError):
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, lambda: srv.begin_drain()
            )
        print(
            f"twin service for {srv.spec.name!r} listening on "
            f"{srv.url} ({args.workers} workers"
            + (f", store {srv.store.path}" if srv.store is not None else "")
            + ")",
            file=sys.stderr,
            flush=True,
        )
        if srv.expose_metrics:
            print(
                f"telemetry: {srv.url}/metrics  {srv.url}/statusz  "
                f"console: {srv.url}/console",
                file=sys.stderr,
                flush=True,
            )
        if srv.alerts is not None and srv.alerts.rules:
            print(
                f"alerting: {len(srv.alerts.rules)} rule(s) at "
                f"{srv.url}/alertz, history at {srv.url}/api/query",
                file=sys.stderr,
                flush=True,
            )
        if srv.chaos.enabled:
            print(
                f"CHAOS ENABLED (seed {args.chaos}): injecting "
                "seed-deterministic faults — not for production",
                file=sys.stderr,
                flush=True,
            )

    try:
        asyncio.run(server.run_forever(on_start=banner))
    except KeyboardInterrupt:
        print("\nservice stopped", file=sys.stderr)
    if server.drained:
        print("service drained cleanly", file=sys.stderr)
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service import TwinClient

    return TwinClient(args.url)


def cmd_submit(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    if args.scenario_file:
        doc = _json.loads(Path(args.scenario_file).read_text("utf-8"))
    else:
        doc = {
            "kind": args.kind,
            "name": args.kind,
            "duration_s": args.hours * 3600.0,
            "seed": args.seed,
            "with_cooling": not args.no_cooling,
        }
        if args.fidelity:
            doc["fidelity"] = args.fidelity
    client = _service_client(args)
    jobs = client.submit_all(doc, use_cache=not args.no_cache)
    for job in jobs:
        print(
            f"{job['id']}  {job['state']:9s}  {job['kind']:12s} "
            f"{job['name']}" + ("  (cached)" if job["cached"] else "")
        )
    if args.watch:
        for doc in client.watch(jobs[0]["id"]):
            print(_json.dumps(doc))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import json as _json

    client = _service_client(args)
    stream = (
        client.watch_ws(args.job_id)
        if args.ws
        else client.watch(args.job_id)
    )
    for doc in stream:
        print(_json.dumps(doc), flush=True)
        if doc.get("event") == "failed":
            return 1
    return 0


def cmd_drain(args: argparse.Namespace) -> int:
    client = _service_client(args)
    doc = client.drain()
    checkpointed = doc.get("checkpointed", [])
    running = doc.get("running", [])
    print(
        f"draining: {len(checkpointed)} queued job(s) checkpointed, "
        f"{len(running)} running job(s) finishing"
    )
    for jid in checkpointed:
        print(f"  checkpointed {jid}")
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    client = _service_client(args)
    jobs = client.jobs()
    if not jobs:
        print("(no jobs)")
        return 0
    print(
        f"{'id':10s} {'state':10s} {'kind':14s} {'steps':>6s} "
        f"{'attempts':>8s} {'cached':>6s}  name"
    )
    for job in jobs:
        print(
            f"{job['id']:10s} {job['state']:10s} {job['kind']:14s} "
            f"{job['steps']:6d} {job['attempts']:8d} "
            f"{str(job['cached']).lower():>6s}  {job['name']}"
        )
    return 0


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def _sparkline(points: list, width: int = 40) -> str:
    """Unicode sparkline from ``[[t, value-or-None], ...]`` points."""
    values = [v for _, v in points if v is not None][-width:]
    if not values:
        return "(no data)"
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK_CHARS[0] * len(values) + f"  ({hi:g})"
    chars = "".join(
        _SPARK_CHARS[
            min(
                int((v - lo) / span * len(_SPARK_CHARS)),
                len(_SPARK_CHARS) - 1,
            )
        ]
        for v in values
    )
    return f"{chars}  ({lo:g}..{hi:g})"


def _render_top(
    doc: dict,
    prev_steps: float | None,
    prev_t: float | None,
    history: dict | None = None,
) -> tuple[str, float, float]:
    """One `repro top` frame from a /statusz document."""
    server = doc["server"]
    metrics = doc.get("metrics", {})
    checks = server.get("checks", {})
    workers = server["workers"]
    queue = server["queue"]
    jobs_by_state = server["jobs"]
    flight = doc.get("flight", {})
    now = doc.get("time", 0.0)
    steps = _snapshot_value(metrics, "repro_service_steps_streamed_total")
    rate = ""
    if prev_steps is not None and prev_t is not None and now > prev_t:
        rate = f"  ({(steps - prev_steps) / (now - prev_t):.1f} steps/s)"
    clients = _snapshot_value(metrics, "repro_service_stream_clients")
    lag = checks.get("event_loop", {}).get("lag_s", 0.0)
    lines = [
        f"twin service {server['system']!r} @ {doc.get('url', '?')}  "
        f"status {server['status']}",
        f"workers {workers['alive']}/{workers['configured']} alive   "
        f"queue {queue['depth']}   "
        f"running {jobs_by_state.get('running', 0)}   "
        f"stream clients {int(clients)}   loop lag {lag:.3f}s",
        "jobs: "
        + "  ".join(
            f"{state}={count}"
            for state, count in sorted(jobs_by_state.items())
        )
        + f"  (total {doc.get('jobs_total', 0)})",
        f"steps streamed {int(steps)}{rate}   cache hits "
        f"{int(_snapshot_value(metrics, 'repro_service_cache_hits_total'))}"
        "   warm hits "
        f"{int(_snapshot_value(metrics, 'repro_service_warm_hits_total'))}"
        "   requeues "
        f"{int(_snapshot_value(metrics, 'repro_service_requeues_total'))}",
        f"flight recorder: {flight.get('events', 0)} events buffered, "
        f"{flight.get('dumps', 0)} crash dumps",
    ]
    job_seconds = doc.get("job_seconds", {})
    if job_seconds.get("count"):
        lines.append(
            f"job wall time: p50 {job_seconds.get('p50', 0) or 0:.2f}s  "
            f"p95 {job_seconds.get('p95', 0) or 0:.2f}s  "
            f"p99 {job_seconds.get('p99', 0) or 0:.2f}s  "
            f"({job_seconds['count']} jobs)"
        )
    alerts = doc.get("alerts", {})
    if alerts.get("enabled"):
        firing = [
            a for a in alerts.get("alerts", []) if a["state"] == "firing"
        ]
        if firing:
            lines.append("")
            for a in firing:
                value = a.get("value")
                shown = f"{value:g}" if value is not None else "?"
                lines.append(
                    f"ALERT [{a['severity']}] {a['rule']}: "
                    f"{a['metric']} {a['op']} {a['threshold']:g} "
                    f"(value {shown})"
                )
        else:
            lines.append(
                f"alerts: {len(alerts.get('alerts', []))} rule(s), "
                "none firing"
            )
    for label, points in (history or {}).items():
        lines.append(f"{label:>12s} {_sparkline(points)}")
    recent = doc.get("jobs", [])[-10:]
    if recent:
        lines.append("")
        lines.append(
            f"{'id':10s} {'state':10s} {'kind':14s} {'steps':>6s} "
            f"{'attempts':>8s}  name"
        )
        for job in recent:
            lines.append(
                f"{job['id']:10s} {job['state']:10s} {job['kind']:14s} "
                f"{job['steps']:6d} {job['attempts']:8d}  {job['name']}"
            )
    return "\n".join(lines), steps, now


def cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    client = _service_client(args)
    iterations = 1 if args.once else args.iterations
    prev_steps = prev_t = None
    shown = 0
    try:
        while True:
            doc = client.statusz()
            history = None
            if doc.get("history", {}).get("enabled"):
                history = {}
                try:
                    for label, metric, agg in (
                        ("steps/s", "repro_service_steps_streamed_total",
                         "rate"),
                        ("queue", "repro_service_queue_depth", "max"),
                    ):
                        history[label] = client.query(
                            metric, start=-120, step=3, agg=agg
                        )["points"]
                except ExaDigiTError:
                    history = None  # server predates /api/query
            frame, prev_steps, prev_t = _render_top(
                doc, prev_steps, prev_t, history
            )
            if not args.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            shown += 1
            if iterations and shown >= iterations:
                break
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def cmd_alerts(args: argparse.Namespace) -> int:
    """Tabulate a service's alert rules, states, and transitions."""
    client = _service_client(args)
    doc = client.alertz()
    if not doc.get("enabled"):
        print("alerting disabled (serve with --history-interval > 0)")
        return 0
    alerts = doc.get("alerts", [])
    if not alerts:
        print("(no alert rules; serve with --alert-rules FILE)")
        return 0
    print(
        f"{'rule':20s} {'state':9s} {'severity':9s} "
        f"{'value':>10s}  condition"
    )
    for a in alerts:
        value = a.get("value")
        shown = f"{value:.4g}" if value is not None else "-"
        print(
            f"{a['rule']:20s} {a['state']:9s} {a['severity']:9s} "
            f"{shown:>10s}  {a['agg']}({a['metric']}"
            f"[{a['window_s']:g}s]) {a['op']} {a['threshold']:g} "
            f"for {a['for_s']:g}s"
        )
    transitions = doc.get("transitions", [])
    if args.transitions and transitions:
        print()
        print("recent transitions:")
        for t in transitions[-args.transitions:]:
            value = t.get("value")
            shown = f"{value:.4g}" if value is not None else "-"
            print(
                f"  t={t['t']:.3f}  {t['rule']:20s} -> {t['state']:9s} "
                f"(value {shown})"
            )
    firing = doc.get("firing", 0)
    print(
        f"\n{firing} firing / {len(alerts)} rule(s), "
        f"{doc.get('evaluations', 0)} evaluations"
    )
    return 1 if firing and args.fail_on_firing else 0


def _build_generator(kind: str, assignments, seed: int):
    """Construct a workload generator from CLI ``--set key=value`` pairs."""
    from repro.workloads import WorkloadGenerator

    doc = {"generator": kind, "seed": seed}
    for assignment in assignments or ():
        # Accept both repeated --set flags and the ;-separated form the
        # --grid flag uses.
        for pair in assignment.split(";"):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ExaDigiTError(
                    f"bad --set {pair!r}; expected param=value"
                )
            key, _, raw = pair.partition("=")
            doc[key.strip()] = _parse_value(raw)
    return WorkloadGenerator.from_dict(doc)


def cmd_workload_list(args: argparse.Namespace) -> int:
    from repro.workloads import GENERATOR_TYPES

    print(f"{'kind':16s} {'role':8s} parameters (name=default)")
    for kind in sorted(GENERATOR_TYPES):
        cls = GENERATOR_TYPES[kind]
        params = ", ".join(
            f"{name}={info['default']}"
            for name, info in cls.param_schema().items()
        )
        print(f"{kind:16s} {cls.role:8s} {params}")
    return 0


def cmd_workload_preview(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.viz.traces import render_trace

    spec = DigitalTwin(args.system).spec
    gen = _build_generator(args.kind, args.set, args.seed)
    duration_s = args.hours * 3600.0
    payload = gen.generate(spec, duration_s)
    print(f"generator {gen.generator} (role {gen.role})")
    print(f"spec-sha  {gen.spec_sha()}")
    print()
    if gen.role == "jobs":
        submits = np.array([job.submit_time for job in payload])
        nodes = np.array([job.nodes_required for job in payload])
        bins = min(72, max(8, int(args.hours * 12)))
        counts, edges = np.histogram(submits, bins=bins, range=(0, duration_s))
        centers = (edges[:-1] + edges[1:]) / 2.0
        print(
            f"{len(payload)} jobs, mean {nodes.mean():.1f} nodes/job "
            f"(max {nodes.max()})" if len(payload) else "0 jobs"
        )
        if len(payload):
            print(render_trace(centers, counts, title="arrivals per bin"))
    elif gen.role == "events":
        print(f"{len(payload)} fault events")
        for event in payload:
            detail = (
                f"cdu={event.cdu_index} severity={event.severity:g}"
                if event.kind == "cdu-blockage"
                else f"nodes={list(event.nodes)}"
                + ("" if event.kill_running else " (soft)")
            )
            print(f"  t={event.time_s:10.1f}s  {event.kind:12s} {detail}")
    elif gen.role == "wetbulb":
        print(
            render_trace(
                payload.times, payload.values,
                title="wet-bulb temperature", unit="degC",
            )
        )
    elif gen.role == "grid":
        print(
            render_trace(
                payload.times_s, payload.carbon_intensity_lb_per_mwh,
                title="grid carbon intensity", unit="lb CO2 / MWh",
            )
        )
        print()
        print(
            render_trace(
                payload.times_s, payload.price_usd_per_kwh,
                title="grid price", unit="USD / kWh",
            )
        )
    return 0


def cmd_workload_sweep(args: argparse.Namespace) -> int:
    from repro.scenarios import GeneratedScenario
    from repro.workloads import StressSuite

    if (
        MultiFidelityCampaign.exists(args.directory)
        or CampaignStore.exists(args.directory)
    ):
        print(
            f"stress suite exists at {args.directory}; resuming",
            file=sys.stderr,
        )
        suite = StressSuite.open(args.directory, surrogates=args.surrogates)
    else:
        if not args.grid:
            raise ExaDigiTError("workload sweep needs --grid on first run")
        gen = _build_generator(args.kind, args.set, args.seed)
        base = GeneratedScenario(
            name=f"gen-{args.kind}",
            duration_s=args.hours * 3600.0,
            seed=args.seed,
            with_cooling=not args.no_cooling,
            workload=gen,
        )
        sweep = GridSweepScenario(
            name=f"{args.kind}-stress",
            base=base,
            grid=_parse_grid(args.grid),
        )
        suite = StressSuite.create(
            args.directory,
            [sweep],
            system=args.system or "frontier",
            screen_top_k=args.screen_top,
            metric=args.metric,
            objective=args.objective,
            name=args.name,
            surrogates=args.surrogates,
        )
    report = suite.run(
        workers=args.workers,
        progress=_campaign_progress,
        execution=args.execution,
    )
    print(report.report())
    print(f"\nartifacts: {args.directory}", file=sys.stderr)
    return 1 if report.failed else 0


def cmd_scene(args: argparse.Namespace) -> int:
    print(build_scene(DigitalTwin(args.system).spec).to_json())
    return 0


def cmd_autocsm(args: argparse.Namespace) -> int:
    print(autocsm_report(DigitalTwin(args.system).spec))
    return 0


def cmd_systems(args: argparse.Namespace) -> int:
    for name in builtin_system_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ExaDigiT digital-twin console",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="synthetic-workload simulation")
    _add_common(p)
    p.add_argument(
        "--live",
        action="store_true",
        help="stream per-quantum status lines while the run progresses",
    )
    p.add_argument(
        "--fidelity",
        choices=("full", "surrogate"),
        default="full",
        help="execution backend: L4 engine (full) or the L3 fast path",
    )
    p.add_argument(
        "--surrogates",
        metavar="BUNDLE",
        default=None,
        help="saved surrogate bundle for --fidelity surrogate "
        "(default: train one on first use)",
    )
    p.add_argument(
        "--export-steps",
        metavar="PATH",
        help="stream per-quantum StepState records to PATH as JSONL "
        "(tail-able by external dashboards)",
    )
    p.add_argument(
        "--cooling-backend",
        choices=("fused", "reference"),
        default="fused",
        help="cooling-plant stepping backend (bit-identical; reference "
        "is the slow oracle)",
    )
    p.add_argument(
        "--verbose",
        action="store_true",
        help="print engine work counters (steps, power evals) after the run",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "profile",
        help="profile the engine hot path (per-phase wall time as JSON)",
    )
    _add_system_arg(p)
    p.add_argument(
        "--hours", type=float, default=1.0, help="simulated hours (default 1)"
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument(
        "--no-cooling",
        action="store_true",
        help="profile an uncoupled run (no cooling phase)",
    )
    p.add_argument(
        "--cooling-backend",
        choices=("fused", "reference"),
        default="fused",
        help="cooling-plant stepping backend to profile",
    )
    p.add_argument(
        "--out",
        metavar="PATH",
        help="write the JSON profile to PATH (default: stdout)",
    )
    p.add_argument(
        "--mode",
        choices=("direct", "batched", "serve"),
        default="direct",
        help="what to profile: the engine hot path directly, the same "
        "scenario through BatchedEngine (registry counters), or an "
        "ephemeral twin service observed through /statusz",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="profile N fresh runs and add each phase's median and "
        "spread (max - min) over them (default 1)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="Table III verification points")
    _add_system_arg(p)
    _add_workers_arg(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="replay a saved telemetry dataset")
    _add_common(p)
    p.add_argument("dataset", help="path prefix of a saved dataset")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("whatif", help="counterfactual studies (IV-3)")
    _add_common(p)
    p.add_argument(
        "scenario",
        choices=("smart-rectifier", "direct-dc"),
        help="which modification to evaluate",
    )
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser(
        "suite", help="run a JSON scenario suite (optionally in parallel)"
    )
    p.add_argument(
        "scenarios",
        help="JSON file: array of scenario objects or "
        '{"system": ..., "scenarios": [...]}',
    )
    p.add_argument(
        "--system",
        default=None,
        help="override the suite file's system (builtin name or JSON path)",
    )
    _add_workers_arg(p)
    p.add_argument(
        "--export",
        metavar="PREFIX",
        help="write each scenario's series to PREFIX-<name>.json",
    )
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("sweep", help="sweep one scenario parameter")
    _add_common(p)
    _add_workers_arg(p)
    p.add_argument(
        "--kind",
        default="synthetic",
        help="base scenario kind to sweep (default: synthetic)",
    )
    p.add_argument(
        "--param",
        default="seed",
        help="scenario field to sweep (default: seed)",
    )
    p.add_argument(
        "--values",
        default="0,1,2,3",
        help="comma-separated values for the swept field",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "campaign",
        help="persisted sweep campaigns (run / resume / compare)",
    )
    campaign_sub = p.add_subparsers(dest="campaign_command", required=True)

    cp = campaign_sub.add_parser(
        "run",
        help="run a sweep campaign into an artifact directory "
        "(resumes if it exists)",
    )
    cp.add_argument("directory", help="campaign artifact directory")
    cp.add_argument(
        "--system",
        default=None,
        help="builtin system name or JSON spec path (default: frontier, "
        "or the --scenarios file's system)",
    )
    cp.add_argument(
        "--hours", type=float, default=2.0, help="simulated hours (default 2)"
    )
    cp.add_argument("--seed", type=int, default=0, help="RNG seed")
    cp.add_argument(
        "--no-cooling",
        action="store_true",
        help="skip the cooling model (paper: 3x faster replays)",
    )
    _add_workers_arg(cp)
    _add_execution_arg(cp)
    cp.add_argument(
        "--kind",
        default="synthetic",
        help="base scenario kind to sweep (default: synthetic)",
    )
    cp.add_argument(
        "--grid",
        metavar="SPEC",
        help='cartesian grid, e.g. "wetbulb_c=12,15,18;seed=0,1,2,3"',
    )
    cp.add_argument(
        "--lhs",
        metavar="SPEC",
        help='latin-hypercube box, e.g. "wetbulb_c=5.0:25;seed=0:100" '
        "(integer bounds sample integers; use a decimal point for "
        "continuous axes)",
    )
    cp.add_argument(
        "--samples",
        type=int,
        default=8,
        help="LHS sample count (default 8)",
    )
    cp.add_argument(
        "--scenarios",
        metavar="FILE",
        help="JSON suite file instead of --grid/--lhs",
    )
    cp.add_argument(
        "--name", default=None, help="campaign name (default: directory name)"
    )
    cp.add_argument(
        "--fidelity",
        choices=("full", "surrogate"),
        default=None,
        help="pin every cell to one execution backend "
        "(surrogate = the L3 fast path)",
    )
    cp.add_argument(
        "--refine-top",
        type=int,
        metavar="K",
        default=None,
        help="multi-fidelity mode: surrogate-screen the whole grid, then "
        "re-run the top K cells at full fidelity with an error report",
    )
    cp.add_argument(
        "--metric",
        default="mean_pue",
        choices=CAMPAIGN_METRICS,
        help="ranking metric for --refine-top (default: mean_pue)",
    )
    cp.add_argument(
        "--objective",
        choices=("max", "min"),
        default="max",
        help="whether top cells maximize or minimize --metric",
    )
    cp.add_argument(
        "--surrogates",
        metavar="BUNDLE",
        default=None,
        help="saved surrogate bundle for surrogate-fidelity cells "
        "(shared with worker processes; default: train on first use)",
    )
    cp.set_defaults(func=cmd_campaign_run)

    cp = campaign_sub.add_parser(
        "resume", help="finish an interrupted campaign (skips done cells)"
    )
    cp.add_argument("directory", help="campaign artifact directory")
    _add_workers_arg(cp)
    _add_execution_arg(cp)
    cp.add_argument(
        "--surrogates",
        metavar="BUNDLE",
        default=None,
        help="saved surrogate bundle for surrogate-fidelity cells",
    )
    cp.set_defaults(func=cmd_campaign_resume)

    cp = campaign_sub.add_parser(
        "compare",
        help="reload stored campaigns (no simulation) into tables/heat maps",
    )
    cp.add_argument(
        "directories", nargs="+", help="campaign artifact directories"
    )
    cp.add_argument(
        "--metric",
        default="mean_power_mw",
        choices=CAMPAIGN_METRICS,
        help="metric for cross-campaign tables and heat maps",
    )
    cp.add_argument(
        "--heatmap",
        action="store_true",
        help="also render grid-sweep heat maps",
    )
    cp.set_defaults(func=cmd_campaign_compare)

    p = sub.add_parser(
        "surrogate",
        help="fast-path model bundles (fit / eval)",
    )
    surrogate_sub = p.add_subparsers(dest="surrogate_command", required=True)

    sp = surrogate_sub.add_parser(
        "fit",
        help="train a surrogate bundle (from L4 sampling or a campaign) "
        "and save it with provenance",
    )
    _add_system_arg(sp)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="bundle output path (default: models/<system>.json)",
    )
    sp.add_argument(
        "--no-cooling",
        action="store_true",
        help="skip the cooling surrogate (power-only bundle, fast)",
    )
    sp.add_argument(
        "--power-samples",
        type=int,
        default=400,
        help="L4 power-model samples for the power heads (default 400)",
    )
    sp.add_argument(
        "--grid",
        type=int,
        default=4,
        help="cooling training grid size per axis (default 4)",
    )
    sp.add_argument(
        "--settle",
        type=float,
        default=3600.0,
        help="plant settle seconds per cooling grid point (default 3600)",
    )
    sp.add_argument(
        "--cooling-degree",
        type=int,
        default=2,
        help="cooling response-surface polynomial degree (default 2; "
        "lower it when training --from-campaign with few cells)",
    )
    sp.add_argument(
        "--from-campaign",
        metavar="DIR",
        default=None,
        help="train from a persisted campaign's artifacts instead of "
        "fresh simulation (uses the spec embedded in its manifest)",
    )
    sp.set_defaults(func=cmd_surrogate_fit)

    sp = surrogate_sub.add_parser(
        "eval",
        help="audit a saved bundle: provenance, fit quality, and "
        "surrogate-vs-full accuracy + speedup on a shared scenario",
    )
    _add_system_arg(sp)
    sp.add_argument("bundle", help="path to a saved bundle JSON")
    sp.add_argument(
        "--hours", type=float, default=0.5, help="eval scenario hours"
    )
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument(
        "--no-cooling",
        action="store_true",
        help="evaluate the power path only",
    )
    sp.set_defaults(func=cmd_surrogate_eval)

    p = sub.add_parser(
        "serve", help="run the twin service (asyncio job server)"
    )
    _add_system_arg(p)
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port",
        type=int,
        default=8787,
        help="listen port (default 8787; 0 picks a free port)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes in the work-stealing pool (default 2)",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="persist results + step streams to an open-ended campaign "
        "store (also the cross-restart result cache)",
    )
    p.add_argument(
        "--fidelity",
        choices=("full", "surrogate"),
        default="full",
        help="default backend for scenarios that don't pin one",
    )
    p.add_argument(
        "--surrogates",
        metavar="BUNDLE",
        default=None,
        help="saved surrogate bundle shipped to every worker",
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=2,
        help="dispatch attempts per job before a worker crash fails it",
    )
    p.add_argument(
        "--execution",
        choices=("processes", "batched"),
        default="processes",
        help="how the worker pool takes queued cells: one cell per "
        "dispatch, or each submission's cells together as the lanes of "
        "one vectorized engine on one worker (bit-identical results)",
    )
    p.add_argument(
        "--metrics",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="expose /metrics, /statusz and the /console dashboard "
        "(--no-metrics serves them empty at zero recording cost)",
    )
    p.add_argument(
        "--history-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="telemetry-history sampling period feeding /api/query and "
        "the alert engine (default 1.0; 0 disables retention)",
    )
    p.add_argument(
        "--alert-rules",
        metavar="FILE",
        default=None,
        help="JSON alert-rules file evaluated every sampling tick "
        "(see docs/observability.md; served at /alertz)",
    )
    p.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="inject seed-deterministic faults (worker crashes, store "
        "write failures, slow I/O, connection drops, loop stalls) for "
        "resilience testing; same seed, same fault schedule",
    )
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=1024,
        help="admission control: queued jobs beyond this are rejected "
        "with 429 + Retry-After (default 1024)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="admission control: per-client cap on unfinished jobs, "
        "keyed on the X-Repro-Client header (default 256)",
    )
    p.add_argument(
        "--drain-grace-s",
        type=float,
        default=30.0,
        help="seconds a drain (POST /drainz or SIGTERM) waits for "
        "running jobs before checkpointing the leftovers (default 30)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a scenario to a running twin service"
    )
    p.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default {DEFAULT_SERVICE_URL})",
    )
    p.add_argument(
        "scenario_file",
        nargs="?",
        default=None,
        help="scenario JSON file (omit to build one from the flags)",
    )
    p.add_argument(
        "--kind", default="synthetic", help="scenario kind (no file)"
    )
    p.add_argument(
        "--hours", type=float, default=2.0, help="simulated hours (no file)"
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (no file)")
    p.add_argument(
        "--no-cooling", action="store_true", help="uncoupled run (no file)"
    )
    p.add_argument(
        "--fidelity",
        choices=("full", "surrogate"),
        default=None,
        help="pin the execution backend (no file)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="force simulation even when the result cache has this job",
    )
    p.add_argument(
        "--watch",
        action="store_true",
        help="stream the first job's records after submitting",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "watch", help="stream a service job's step records (NDJSON lines)"
    )
    p.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default {DEFAULT_SERVICE_URL})",
    )
    p.add_argument("job_id", help="job id (from submit / jobs)")
    p.add_argument(
        "--ws",
        action="store_true",
        help="use the websocket transport instead of NDJSON",
    )
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("jobs", help="list a twin service's jobs")
    p.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default {DEFAULT_SERVICE_URL})",
    )
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser(
        "drain",
        help="gracefully drain a twin service (finish running jobs, "
        "checkpoint the queue, then exit)",
    )
    p.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default {DEFAULT_SERVICE_URL})",
    )
    p.set_defaults(func=cmd_drain)

    p = sub.add_parser(
        "top",
        help="live terminal view of a twin service (polls /statusz)",
    )
    p.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default {DEFAULT_SERVICE_URL})",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    p.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after N frames (default 0: run until interrupted)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="print a single snapshot and exit (no screen clearing)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "alerts",
        help="show a twin service's alert rules and states (/alertz)",
    )
    p.add_argument(
        "--url",
        default=DEFAULT_SERVICE_URL,
        help=f"service base URL (default {DEFAULT_SERVICE_URL})",
    )
    p.add_argument(
        "--transitions",
        type=int,
        default=10,
        metavar="N",
        help="show the last N state transitions (default 10; 0 hides)",
    )
    p.add_argument(
        "--fail-on-firing",
        action="store_true",
        help="exit 1 when any rule is firing (for scripts/CI probes)",
    )
    p.set_defaults(func=cmd_alerts)

    p = sub.add_parser(
        "workload",
        help="parametric workload generators (list / preview / sweep)",
    )
    workload_sub = p.add_subparsers(dest="workload_command", required=True)

    wp = workload_sub.add_parser(
        "list", help="catalog the registered generators and their schemas"
    )
    wp.set_defaults(func=cmd_workload_list)

    wp = workload_sub.add_parser(
        "preview",
        help="generate one workload and render its trace (no simulation)",
    )
    wp.add_argument("kind", help="generator kind (see `repro workload list`)")
    _add_system_arg(wp)
    wp.add_argument(
        "--hours", type=float, default=2.0, help="generated hours (default 2)"
    )
    wp.add_argument("--seed", type=int, default=0, help="generator seed")
    wp.add_argument(
        "--set",
        action="append",
        metavar="PARAM=VALUE",
        help="override one generator parameter (repeatable)",
    )
    wp.set_defaults(func=cmd_workload_preview)

    wp = workload_sub.add_parser(
        "sweep",
        help="stress-suite campaign over a generator grid "
        "(resumable; validates every cell)",
    )
    wp.add_argument("directory", help="campaign artifact directory")
    wp.add_argument(
        "--system",
        default=None,
        help="builtin system name or JSON spec path (default: frontier)",
    )
    wp.add_argument(
        "--kind",
        default="diurnal",
        help="workload generator kind for the base cell (default: diurnal)",
    )
    wp.add_argument(
        "--set",
        action="append",
        metavar="PARAM=VALUE",
        help="base generator parameter override (repeatable)",
    )
    wp.add_argument(
        "--grid",
        metavar="SPEC",
        help="sweep grid; dotted paths reach generator fields, e.g. "
        '"workload.mean_arrival_s=120,240;seed=0,1"',
    )
    wp.add_argument(
        "--hours", type=float, default=0.5, help="simulated hours per cell"
    )
    wp.add_argument("--seed", type=int, default=0, help="base seed")
    wp.add_argument(
        "--no-cooling",
        action="store_true",
        help="uncoupled cells (no cooling model)",
    )
    _add_workers_arg(wp)
    _add_execution_arg(wp)
    wp.add_argument(
        "--screen-top",
        type=int,
        metavar="K",
        default=None,
        help="surrogate-screen the grid and refine only the top K cells",
    )
    wp.add_argument(
        "--metric",
        default="mean_power_mw",
        choices=CAMPAIGN_METRICS,
        help="ranking metric for --screen-top (default: mean_power_mw)",
    )
    wp.add_argument(
        "--objective",
        choices=("max", "min"),
        default="max",
        help="whether top cells maximize or minimize --metric",
    )
    wp.add_argument(
        "--name", default=None, help="campaign name (default: directory name)"
    )
    wp.add_argument(
        "--surrogates",
        metavar="BUNDLE",
        default=None,
        help="saved surrogate bundle for screened / surrogate cells",
    )
    wp.set_defaults(func=cmd_workload_sweep)

    p = sub.add_parser("scene", help="emit the L1 scene graph as JSON")
    _add_system_arg(p)
    p.set_defaults(func=cmd_scene)

    p = sub.add_parser("autocsm", help="generated cooling-model inventory")
    _add_system_arg(p)
    p.set_defaults(func=cmd_autocsm)

    p = sub.add_parser("systems", help="list bundled machine specs")
    p.set_defaults(func=cmd_systems)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExaDigiTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout consumer (e.g. `head`) went away mid-stream; point the
        # fd at devnull so the interpreter-exit flush doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
