"""Command-line interface: ``python -m repro``.

Subcommands
-----------

``optimize``
    Run the pluggable low-power pass pipeline (``repro.opt``) — operand
    isolation, register clock gating, or both — and write the
    transformed netlist (textual format and/or Verilog) plus a summary
    report. Select passes with ``--passes isolation,clock_gating``.

``isolate``
    ``optimize --passes isolation``: the paper's Algorithm 1 alone, with
    the same output (summary or ``--json`` payload, netlist, Verilog).

``report``
    Estimate power / area / timing of a design under a random stimulus
    without transforming it.

``compare``
    Produce a paper-style Table 1/2 comparing the non-isolated design
    against all three isolation styles.

``activation``
    Print the derived activation function of every datapath module.

``validate``
    Structural validation: print one diagnostic per problem (text or
    ``--json``), exit 1 when any error-severity problem exists. With
    ``--faults`` additionally runs the fault-injection campaign and
    fails on any silent fault.

``profile``
    Run the optimizer (``--passes``, isolation by default) under the
    tracer and print a per-span time rollup; combine with ``--trace
    FILE`` for a Perfetto-loadable Chrome trace.

``serve``
    Run the HTTP job service (:mod:`repro.serve`): asynchronous jobs
    over the Session API with a bounded queue, a content-addressed
    result cache, ``/healthz`` + ``/metrics`` and graceful drain on
    SIGINT. See ``docs/serving.md``.

``submit``
    Submit one job to a running ``repro serve`` instance and (by
    default) poll it to completion; ``--json`` emits the final job
    record.

``sweep``
    Design-space exploration (:mod:`repro.sweep`): expand a sweep spec
    (a JSON file, or inline axis flags) into content-addressed points,
    run them — inline or through a live ``repro serve`` endpoint with
    ``--url`` — persist every result in an experiment store
    (``--store DIR``) and print a Pareto report. Killing a sweep
    mid-run loses at most the in-flight point: re-invoking the same
    command resumes from the store. See ``docs/sweeps.md``.

Every subcommand accepts ``--trace FILE`` (Chrome trace-event JSON of
the run) and ``--metrics FILE`` (metrics as JSON, or Prometheus text
when the file ends in ``.prom``). With ``--json``, stdout carries
exactly one machine-readable JSON document; everything meant for humans
(progress notices, equivalence status, "written to" lines) goes to
stderr.

Designs are read either from a ``.rtl`` file in the textual netlist
format (:mod:`repro.netlist.textio`) or generated by name with
``--builtin`` (``design1``, ``design2``, ``fir``, ``alu``, ``bus``,
``fig1``, ``pipeline``).

Control-signal statistics of the stimulus are set with ``--control-prob``
/ ``--control-rate`` and per-input overrides like
``--override EN=0.2:0.05`` (probability[:toggle-rate]); alternatively
``--profile NAME`` swaps in a registered workload profile (``random``,
``bursty``, ``idle``, ``correlated`` — see
:mod:`repro.sim.stimulus`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro import obs
from repro.core import (
    compare_styles,
    derive_activation_functions,
    format_comparison_table,
)
from repro.core.cost import CostWeights
from repro.designs import BUILTINS, builtin_design
from repro.errors import ReproError
from repro.netlist import textio
from repro.netlist.design import Design
from repro.netlist.verilog import to_verilog
from repro.opt import IsolationConfig, available_passes, optimize
from repro.power import estimate_power, format_power_report
from repro.power.library import default_library
from repro.runconfig import ENGINES, RunConfig
from repro.sim.stimulus import ControlStream, random_stimulus
from repro.timing.sta import analyze_timing
from repro.verify import check_observable_equivalence

def emit(payload: object, args: argparse.Namespace) -> None:
    """Print the run's single JSON document to stdout (``--json`` only)."""
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))


def _info(args: argparse.Namespace, message: str) -> None:
    """Human-facing notice: stdout normally, stderr when ``--json`` owns
    stdout (so piped JSON stays parseable). Flushed immediately so
    long-running subcommands (``repro serve``) signal readiness to
    supervising processes."""
    stream = sys.stderr if getattr(args, "json", False) else sys.stdout
    print(message, file=stream, flush=True)


def _load_design(args: argparse.Namespace) -> Design:
    if args.builtin:
        return builtin_design(args.builtin)
    if args.netlist:
        return textio.load(args.netlist)
    raise ReproError("provide a netlist file or --builtin NAME")


def _parse_overrides(specs: List[str]) -> Dict[str, ControlStream]:
    overrides: Dict[str, ControlStream] = {}
    for spec in specs or []:
        try:
            name, _, stats = spec.partition("=")
            prob_str, _, rate_str = stats.partition(":")
            probability = float(prob_str)
            rate = float(rate_str) if rate_str else None
            overrides[name] = ControlStream(probability, rate)
        except (ValueError, ReproError) as exc:
            raise ReproError(f"bad --override {spec!r}: {exc}") from exc
    return overrides


def _stimulus_factory(design: Design, args: argparse.Namespace):
    specs = getattr(args, "override", None)
    _parse_overrides(specs)  # a bad --override fails before any work
    profile = getattr(args, "profile", None)
    if profile:
        from repro.sim.stimulus import make_profile

        def make():
            return make_profile(profile, design, seed=args.seed)

        return make

    def make():
        # Fresh streams per stimulus: a ControlStream carries its Markov
        # state, so shared ones would start each stimulus where the last
        # one stopped.
        return random_stimulus(
            design,
            seed=args.seed,
            control_probability=args.control_prob,
            control_toggle_rate=args.control_rate,
            overrides=_parse_overrides(specs) or None,
        )

    return make


def _parse_workers(value: str) -> int:
    """``--workers`` argument: a count, or ``auto`` = one per CPU."""
    if value.strip().lower() == "auto":
        return 0
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if workers < 0:
        raise argparse.ArgumentTypeError("workers must be >= 0 (0 = auto)")
    return workers


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("netlist", nargs="?", help="textual netlist (.rtl) file")
    parser.add_argument("--builtin", help=f"built-in design: {sorted(BUILTINS)}")
    parser.add_argument("--seed", type=int, default=0, help="stimulus seed")
    parser.add_argument(
        "--cycles", type=int, default=2000, help="simulation cycles per run"
    )
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default="python",
        help=(
            "simulation backend (all bit-exact; compiled is much faster "
            "than python; bitslice packs batch lanes into bigints and "
            "runs the compiled kernel on a single stream)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=None,
        metavar="N|auto",
        help="worker processes for compare's per-style runs (1 = serial, "
        "auto = one per CPU; default: REPRO_WORKERS env var, else 1); "
        "other commands run in-process; results are bit-exact regardless",
    )
    parser.add_argument(
        "--control-prob",
        type=float,
        default=0.5,
        help="one-probability of unspecified control inputs",
    )
    parser.add_argument(
        "--control-rate",
        type=float,
        default=None,
        help="toggle rate of unspecified control inputs",
    )
    parser.add_argument(
        "--override",
        action="append",
        metavar="NAME=PROB[:RATE]",
        help="per-input control statistics (repeatable)",
    )
    parser.add_argument(
        "--profile",
        metavar="NAME",
        help="drive the design with a registered workload profile "
        "(random, bursty, idle, correlated) instead of the default "
        "random stimulus; --control-prob/--override are ignored",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_obs_options(parser)


def _add_obs_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record the run and write a Chrome trace-event JSON file "
        "(load it in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write recorded metrics (JSON, or Prometheus text when the "
        "file ends in .prom)",
    )


def _add_isolation_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--style", choices=["and", "or", "latch"], default="and",
        help="isolation style",
    )
    parser.add_argument("--omega-p", type=float, default=1.0)
    parser.add_argument("--omega-a", type=float, default=0.25)
    parser.add_argument("--h-min", type=float, default=0.0)
    parser.add_argument(
        "--lookahead", type=int, default=0, metavar="DEPTH",
        help="register look-ahead depth (0 = paper baseline)",
    )
    parser.add_argument(
        "--clock-period", type=float, default=None,
        help="timing constraint in ns (default: critical path x 1.25)",
    )


def _parse_passes(value: str) -> List[str]:
    """``--passes`` argument: comma-separated registered pass names."""
    names = [part.strip() for part in value.split(",") if part.strip()]
    known = available_passes()
    bad = [name for name in names if name not in known]
    if bad or not names:
        raise argparse.ArgumentTypeError(
            f"unknown pass(es) {', '.join(bad) or '(none)'}; "
            f"choose from {', '.join(known)}"
        )
    return names


def _workers_kwargs(args: argparse.Namespace) -> Dict[str, int]:
    # Omit the kwarg when --workers was not given, so the config's own
    # default (the REPRO_WORKERS env var, else serial) applies.
    workers = getattr(args, "workers", None)
    return {} if workers is None else {"workers": workers}


def _config_from(args: argparse.Namespace) -> IsolationConfig:
    return IsolationConfig(
        style=args.style,
        weights=CostWeights(args.omega_p, args.omega_a, args.h_min),
        cycles=args.cycles,
        clock_period=args.clock_period,
        lookahead_depth=args.lookahead,
        engine=args.engine,
        **_workers_kwargs(args),
    )


def cmd_optimize(args: argparse.Namespace) -> int:
    """``optimize`` and ``isolate``: summary, optional equivalence check,
    netlist/Verilog export, JSON emission."""
    design = _load_design(args)
    stimulus = _stimulus_factory(design, args)
    result = optimize(design, stimulus, passes=args.passes, config=_config_from(args))
    payload = result.to_dict()
    if not args.json:
        print(result.summary())
    if args.verify_cycles:
        report = check_observable_equivalence(
            design,
            result.design,
            stimulus(),
            args.verify_cycles,
            compare_registers=args.lookahead == 0,
        )
        status = "PASSED" if report.equivalent else "FAILED"
        _info(args, f"equivalence check over {args.verify_cycles} cycles: {status}")
        payload["equivalence"] = {
            "cycles": args.verify_cycles,
            "equivalent": report.equivalent,
            "mismatches": [str(m) for m in report.mismatches[:5]],
        }
        if not report.equivalent:
            for mismatch in report.mismatches[:5]:
                _info(args, f"  {mismatch}")
            emit(payload, args)
            return 1
    if args.out:
        textio.save(result.design, args.out)
        _info(args, f"{args.out_noun} netlist written to {args.out}")
    if args.verilog:
        with open(args.verilog, "w", encoding="utf-8") as fh:
            fh.write(to_verilog(result.design))
        _info(args, f"Verilog written to {args.verilog}")
    emit(payload, args)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.power import format_area_report

    design = _load_design(args)
    stimulus = _stimulus_factory(design, args)
    library = default_library()
    breakdown = estimate_power(
        design,
        stimulus(),
        library=library,
        run=RunConfig(
            cycles=args.cycles,
            seed=args.seed,
            engine=args.engine,
            **_workers_kwargs(args),
        ),
    )
    timing = analyze_timing(design, library)
    if args.json:
        emit(
            {
                "design": design.name,
                "engine": args.engine,
                "cycles": args.cycles,
                "total_power_mw": breakdown.total_power_mw,
                "cell_power_mw": {
                    cell.name: breakdown.cell_power_mw(cell)
                    for cell in sorted(design.cells, key=lambda c: c.name)
                },
                "critical_path_ns": timing.clock_period,
                "area_um2": library.total_area(design),
            },
            args,
        )
    else:
        print(format_power_report(design, breakdown))
        print(f"  critical path   : {timing.clock_period:9.3f} ns")
        print(format_area_report(design, library))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    design = _load_design(args)
    stimulus = _stimulus_factory(design, args)
    comparison = compare_styles(
        design, stimulus, _config_from(args), passes=args.passes
    )
    if args.json:
        style_of_label = {
            "AND-isolated": "and", "OR-isolated": "or", "LAT-isolated": "latch"
        }
        rows = []
        for row in comparison.rows:
            entry = {
                "label": row.label,
                "power_mw": row.power_mw,
                "area_um2": row.area,
                "slack_ns": row.slack,
                "power_reduction": row.power_reduction,
                "area_increase": row.area_increase,
            }
            if row.pass_savings is not None:
                entry["pass_savings_mw"] = row.pass_savings
            style = style_of_label.get(row.label)
            if style in comparison.results:
                entry["timings"] = comparison.results[style].timings.to_dict()
            rows.append(entry)
        emit(rows, args)
    else:
        print(format_comparison_table(comparison))
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    from repro.core.explore import format_ranking, rank_candidates

    design = _load_design(args)
    stimulus = _stimulus_factory(design, args)
    ranked = rank_candidates(
        design,
        stimulus(),
        style=args.style,
        weights=CostWeights(args.omega_p, args.omega_a, args.h_min),
        clock_period=args.clock_period,
        lookahead_depth=args.lookahead,
        run=RunConfig(
            cycles=args.cycles,
            seed=args.seed,
            engine=args.engine,
            **_workers_kwargs(args),
        ),
    )
    if args.json:
        emit([r.to_dict() for r in ranked], args)
    else:
        print(format_ranking(ranked))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.diagnostics import errors_only, format_diagnostics
    from repro.netlist.validate import validation_problems
    from repro.verify.faults import campaign_diagnostics, run_campaign

    design = _load_design(args)
    diagnostics = validation_problems(design, allow_dangling=args.allow_dangling)
    campaign = None
    if args.faults:
        campaign = run_campaign(design, per_kind=args.faults, cycles=args.cycles)
        diagnostics = diagnostics + campaign_diagnostics(campaign)
    failed = bool(errors_only(diagnostics))
    if args.json:
        payload = {
            "design": design.name,
            "ok": not failed,
            "diagnostics": [d.to_dict() for d in diagnostics],
        }
        if campaign is not None:
            payload["fault_campaign"] = {
                "faults": len(campaign.outcomes),
                "detected": len(campaign.detected),
                "masked": len(campaign.masked),
                "silent": len(campaign.silent),
            }
        emit(payload, args)
    else:
        if diagnostics:
            print(format_diagnostics(diagnostics))
        if campaign is not None:
            print(campaign.summary())
        print(
            f"design {design.name!r}: "
            + ("FAILED validation" if failed else "OK")
            + (f" ({len(diagnostics)} diagnostic(s))" if diagnostics else "")
        )
    return 1 if failed else 0


def cmd_activation(args: argparse.Namespace) -> int:
    design = _load_design(args)
    if args.lookahead:
        from repro.core.lookahead import derive_with_lookahead

        analysis = derive_with_lookahead(design, depth=args.lookahead)
    else:
        analysis = derive_activation_functions(design)
    modules = sorted(design.datapath_modules, key=lambda c: c.name)
    if args.json:
        emit(
            {
                "design": design.name,
                "activation": {
                    m.name: str(analysis.of_module(m)) for m in modules
                },
            },
            args,
        )
    else:
        for module in modules:
            print(f"AS_{module.name} = {analysis.of_module(module)}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    design = _load_design(args)
    stimulus = _stimulus_factory(design, args)
    result = optimize(design, stimulus, passes=args.passes, config=_config_from(args))
    transformed = [t.target for t in result.transforms]
    recorder = obs.current()
    rollup = obs.aggregate_spans(recorder.tracer.roots)
    if args.json:
        emit(
            {
                "design": design.name,
                "style": args.style,
                "passes": args.passes,
                "transformed": transformed,
                "isolated": transformed,
                "spans": rollup,
                "metrics": recorder.metrics.to_dict(),
            },
            args,
        )
    else:
        print(
            f"profile of optimize({design.name!r}, "
            f"passes={','.join(args.passes)}, style={args.style!r}): "
            f"{len(transformed)} transform(s) applied"
        )
        print(f"{'span':<20} {'count':>6} {'total[s]':>10} {'self[s]':>10}")
        for row in rollup:
            print(
                f"{row['name']:<20} {row['count']:>6} "
                f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}"
            )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import JobService, make_server

    service = JobService(
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        cache_capacity=args.cache_size,
        default_run=RunConfig(
            cycles=args.cycles,
            seed=args.seed,
            engine=args.engine,
            **_workers_kwargs(args),
        ),
        state_dir=args.state_dir,
        supervise=args.supervise,
        max_attempts=args.max_attempts,
        job_timeout_s=args.job_timeout,
        lease_s=args.lease,
    )
    server = make_server(args.host, args.port, service)
    durable = f", state-dir={args.state_dir}" if args.state_dir else ""
    supervised = ", supervised" if args.supervise else ""
    _info(
        args,
        f"serving on {server.url} "
        f"(queue={args.queue_size}, job-workers={args.job_workers}, "
        f"cache={args.cache_size}{durable}{supervised})",
    )
    if service.last_recovery is not None and service.last_recovery.jobs_seen:
        _info(args, f"recovery: {service.last_recovery.summary()}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        _info(args, "interrupted — draining in-flight jobs")
    finally:
        service.shutdown(drain=True)
        server.server_close()
    status = service.status()
    emit({"url": server.url, **status}, args)
    if not args.json:
        jobs = status["jobs"]
        print(
            f"served {sum(jobs.values())} job(s): "
            f"{jobs['done']} done, {jobs['failed']} failed, "
            f"{jobs['cancelled']} cancelled; cache "
            f"{status['cache']['hits']:.0f} hit(s) / "
            f"{status['cache']['misses']:.0f} miss(es)"
        )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import tempfile

    from repro.verify.chaos import run_chaos_campaign

    state_dir = args.state_dir
    cleanup = None
    if state_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        state_dir = cleanup.name
    try:
        report = run_chaos_campaign(
            state_dir,
            jobs=args.jobs,
            worker_kills=args.kills,
            deadline_jobs=args.deadlines,
            seed=args.seed,
            cycles=args.cycles,
            heavy_cycles=args.heavy_cycles,
            builtin=args.builtin,
        )
    finally:
        if cleanup is not None and not args.keep_state:
            cleanup.cleanup()
    emit(report.to_dict(), args)
    if not args.json:
        for event in report.events:
            print(f"  {event}")
        print(report.summary())
    return 0 if report.ok else 1


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    client = ServeClient(args.url, timeout=min(args.timeout, 60.0))
    design_text = builtin = None
    if args.builtin:
        builtin = args.builtin
    elif args.netlist:
        with open(args.netlist, "r", encoding="utf-8") as fh:
            design_text = fh.read()
    else:
        raise ReproError("provide a netlist file or --builtin NAME")
    run = {"cycles": args.cycles, "seed": args.seed, "engine": args.engine}
    if args.warmup is not None:
        run["warmup"] = args.warmup
    if args.workers is not None:
        run["workers"] = args.workers
    params: Dict[str, object] = {}
    if args.style and args.method in ("isolate", "rank", "optimize"):
        params["style"] = args.style
    if args.styles and args.method == "compare":
        params["styles"] = args.styles.split(",")
    if args.passes and args.method == "optimize":
        params["passes"] = args.passes
    job = client.submit(
        args.method, design=design_text, builtin=builtin, run=run, params=params
    )
    _info(args, f"submitted job {job['id']} to {args.url}")
    if not args.no_wait and job["state"] in ("queued", "running"):
        job = client.wait(job["id"], timeout=args.timeout)
    emit(job, args)
    if not args.json:
        print(
            f"job {job['id']}: {job['state']} "
            f"(method={job['method']}, design={job['design']}, "
            f"cached={job['cached']})"
        )
        if job["state"] == "failed" and job.get("error"):
            print(f"  {job['error']['type']}: {job['error']['message']}")
        elif job.get("result") is not None:
            result = job["result"]
            if "total_power_mw" in result:
                print(f"  total power: {result['total_power_mw']:.4f} mW")
            if "applied" in result:
                applied = [f"{t['pass']}:{t['target']}" for t in result["applied"]]
                print(f"  applied: {applied}")
    return 0 if job["state"] in ("done", "queued", "running") else 1


def _csv_list(value: str) -> List[str]:
    return [part.strip() for part in value.split(",") if part.strip()]


def _csv_floats(value: str) -> List[float]:
    try:
        return [float(part) for part in _csv_list(value)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {value!r}"
        ) from None


def _sweep_spec_payload(args: argparse.Namespace) -> dict:
    """Build the SweepSpec dict from a spec file or inline axis flags."""
    axis_flags = bool(
        args.design or args.stimuli or args.pass_lists or args.styles
        or args.h_min or args.omega_p or args.omega_a
    )
    if args.spec:
        if axis_flags:
            raise ReproError(
                "give either a spec file or inline axis flags, not both"
            )
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read sweep spec {args.spec!r}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ReproError(f"sweep spec {args.spec!r} must hold a JSON object")
        return payload
    if not args.design:
        raise ReproError("provide a spec file or at least one --design")
    payload: Dict[str, object] = {"designs": list(args.design)}
    if args.stimuli:
        payload["stimuli"] = [
            None if name == "default" else name for name in args.stimuli
        ]
    if args.pass_lists:
        payload["pass_lists"] = list(args.pass_lists)
    if args.styles:
        payload["styles"] = list(args.styles)
    for axis in ("h_min", "omega_p", "omega_a"):
        values = getattr(args, axis)
        if values:
            payload[axis] = values
    payload["run"] = {
        "cycles": args.cycles,
        "seed": args.seed,
        "engine": args.engine,
    }
    if args.name:
        payload["name"] = args.name
    return payload


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec.from_dict(_sweep_spec_payload(args))
    total = spec.size
    _info(
        args,
        f"sweep {spec.name!r}: {total} point(s) "
        f"({len(spec.designs)} design(s) x {len(spec.stimuli)} stimulus/i "
        f"x {len(spec.pass_lists)} pass list(s) x {len(spec.styles)} "
        f"style(s) x {len(spec.h_min) * len(spec.omega_p) * len(spec.omega_a)} "
        f"cost point(s))"
        + (f", store={args.store}" if args.store else ", no store (ephemeral)")
        + (f", via {args.url}" if args.url else ", inline"),
    )

    done = {"n": 0}

    def progress(outcome) -> None:
        done["n"] += 1
        axes = outcome.point.axes()
        note = outcome.status
        if outcome.payload is not None:
            power = outcome.payload["power_mw"]["after"]
            note = f"{note}, {power:.4f} mW"
        elif outcome.error:
            note = f"{note}: {outcome.error}"
        _info(
            args,
            f"  [{done['n']}/{total}] {axes['design']} / {axes['stimulus']} / "
            f"{axes['passes']} / {axes['style']} h={axes['h_min']:g} "
            f"({note}, {outcome.duration_s:.2f}s)",
        )

    result = run_sweep(
        spec,
        store=args.store,
        client=args.url,
        limit=args.limit,
        progress=progress,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(result.report_text() + "\n")
        _info(args, f"Pareto report written to {args.report}")
    if args.report_json:
        with open(args.report_json, "w", encoding="utf-8") as fh:
            json.dump(result.report_json(), fh, indent=2)
            fh.write("\n")
        _info(args, f"JSON report written to {args.report_json}")
    emit({**result.to_dict(), "report": result.report_json()}, args)
    if not args.json:
        print(result.report_text())
        print(result.summary())
    return 0 if result.failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Automated RT-level operand isolation (Muench et al., DATE 2000)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    optimize = subparsers.add_parser(
        "optimize",
        help="run the low-power pass pipeline (isolation and/or clock gating)",
    )
    _add_common(optimize)
    _add_isolation_options(optimize)
    optimize.add_argument(
        "--passes",
        type=_parse_passes,
        default=["isolation", "clock_gating"],
        metavar="P1,P2",
        help="comma-separated transform passes, applied jointly under one "
        "h_min budget (default: isolation,clock_gating)",
    )
    optimize.add_argument("--out", help="write optimized netlist (.rtl)")
    optimize.add_argument("--verilog", help="write optimized netlist as Verilog")
    optimize.add_argument(
        "--verify-cycles", type=int, default=2000,
        help="co-simulation equivalence check length (0 to skip)",
    )
    optimize.set_defaults(func=cmd_optimize, out_noun="optimized")

    isolate = subparsers.add_parser(
        "isolate",
        help="run the isolation algorithm (optimize --passes isolation)",
    )
    _add_common(isolate)
    _add_isolation_options(isolate)
    isolate.add_argument("--out", help="write isolated netlist (.rtl)")
    isolate.add_argument("--verilog", help="write isolated netlist as Verilog")
    isolate.add_argument(
        "--verify-cycles", type=int, default=2000,
        help="co-simulation equivalence check length (0 to skip)",
    )
    isolate.set_defaults(func=cmd_optimize, passes=["isolation"], out_noun="isolated")

    report = subparsers.add_parser("report", help="power/area/timing report")
    _add_common(report)
    report.set_defaults(func=cmd_report)

    compare = subparsers.add_parser("compare", help="table of all styles")
    _add_common(compare)
    _add_isolation_options(compare)
    compare.add_argument(
        "--passes",
        type=_parse_passes,
        default=None,
        metavar="P1,P2",
        help="run the full pass pipeline per style and add a per-pass "
        "savings column (default: isolation only, the paper's table)",
    )
    compare.set_defaults(func=cmd_compare)

    rank = subparsers.add_parser(
        "rank", help="what-if ranking of every candidate (no transform)"
    )
    _add_common(rank)
    _add_isolation_options(rank)
    rank.set_defaults(func=cmd_rank)

    activation = subparsers.add_parser(
        "activation", help="print derived activation functions"
    )
    _add_common(activation)
    activation.add_argument("--lookahead", type=int, default=0, metavar="DEPTH")
    activation.set_defaults(func=cmd_activation)

    profile = subparsers.add_parser(
        "profile",
        help="trace the isolation flow and report where the time goes",
    )
    _add_common(profile)
    _add_isolation_options(profile)
    profile.add_argument(
        "--passes",
        type=_parse_passes,
        default=["isolation"],
        metavar="P1,P2",
        help="transform passes to profile (default: isolation)",
    )
    profile.set_defaults(func=cmd_profile, always_record=True)

    validate = subparsers.add_parser(
        "validate", help="structural validation (and optional fault campaign)"
    )
    validate.add_argument("netlist", nargs="?", help="textual netlist (.rtl) file")
    validate.add_argument("--builtin", help=f"built-in design: {sorted(BUILTINS)}")
    validate.add_argument(
        "--allow-dangling",
        action="store_true",
        help="suppress warnings about nets with no readers",
    )
    validate.add_argument(
        "--faults",
        type=int,
        default=0,
        metavar="N",
        help="also run the fault-injection campaign (N faults per kind)",
    )
    validate.add_argument(
        "--cycles", type=int, default=300, help="co-simulation cycles per fault"
    )
    validate.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_obs_options(validate)
    validate.set_defaults(func=cmd_validate)

    serve = subparsers.add_parser(
        "serve",
        help="run the HTTP job service (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8352, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded job queue length (429 + Retry-After beyond it)",
    )
    serve.add_argument(
        "--job-workers", type=int, default=2,
        help="worker threads executing jobs",
    )
    serve.add_argument(
        "--cache-size", type=int, default=256,
        help="content-addressed result cache entries (0 disables)",
    )
    serve.add_argument("--seed", type=int, default=0, help="default stimulus seed")
    serve.add_argument(
        "--cycles", type=int, default=2000, help="default simulation cycles"
    )
    serve.add_argument(
        "--engine", choices=list(ENGINES), default="python",
        help="default simulation backend for jobs that name none",
    )
    serve.add_argument(
        "--workers", type=_parse_workers, default=None, metavar="N|auto",
        help="default process-pool width of compare jobs' per-style runs",
    )
    serve.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="crash-safe state: journal job lifecycle and spill the "
        "result cache to DIR, replaying both on restart",
    )
    serve.add_argument(
        "--supervise", action="store_true",
        help="run each job attempt in a killable worker process "
        "(hard deadlines, crash retry, lease heartbeats)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempt budget per job for transient failures (1 = no retry)",
    )
    serve.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job deadline (enforced by SIGKILL under "
        "--supervise; unlimited when omitted)",
    )
    serve.add_argument(
        "--lease", type=float, default=15.0, metavar="SECONDS",
        help="running-job lease duration (0 disables the lease reaper)",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="emit a JSON service summary on shutdown",
    )
    serve.set_defaults(func=cmd_serve)

    chaos = subparsers.add_parser(
        "chaos",
        help="serve-layer chaos campaign: crash the durable job service "
        "and verify no job is lost and no corruption is silent",
    )
    chaos.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable state dir to attack (default: a fresh temp dir)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=6,
        help="mixed cold/cached burst size before the server kill",
    )
    chaos.add_argument(
        "--kills", type=int, default=1,
        help="supervised worker processes to SIGKILL mid-job",
    )
    chaos.add_argument(
        "--deadlines", type=int, default=1,
        help="oversized jobs submitted under a tiny timeout_s",
    )
    chaos.add_argument("--seed", type=int, default=0, help="campaign RNG seed")
    chaos.add_argument(
        "--cycles", type=int, default=150,
        help="simulation cycles for the burst jobs",
    )
    chaos.add_argument(
        "--heavy-cycles", type=int, default=60000,
        help="cycles for worker-kill/deadline victim jobs (must outlive "
        "the kill window)",
    )
    chaos.add_argument(
        "--builtin", default="fig1", help="built-in design to serve"
    )
    chaos.add_argument(
        "--keep-state", action="store_true",
        help="keep the (temp) state dir for post-mortem inspection",
    )
    chaos.add_argument(
        "--json", action="store_true", help="machine-readable JSON report"
    )
    chaos.set_defaults(func=cmd_chaos)

    sweep = subparsers.add_parser(
        "sweep",
        help="design-space exploration with a persisted experiment store "
        "(see docs/sweeps.md)",
    )
    sweep.add_argument(
        "spec", nargs="?",
        help="sweep spec JSON file (alternative to the inline axis flags)",
    )
    sweep.add_argument(
        "--design", action="append", metavar="NAME|FILE",
        help="designs axis entry: builtin name or .rtl path (repeatable)",
    )
    sweep.add_argument(
        "--stimuli", type=_csv_list, default=None, metavar="S1,S2",
        help="stimulus axis: comma-separated profile names, 'default' "
        "for the plain random stimulus (default: default)",
    )
    sweep.add_argument(
        "--pass-lists", type=_csv_list, default=None, metavar="L1,L2",
        help="pass-list axis: comma separates lists, '+' separates "
        "passes within one (e.g. isolation,rewrite+isolation)",
    )
    sweep.add_argument(
        "--styles", type=_csv_list, default=None, metavar="S1,S2",
        help="isolation style axis (and/or/latch/auto)",
    )
    sweep.add_argument(
        "--h-min", type=_csv_floats, default=None, metavar="V1,V2",
        help="h_min cost-threshold axis",
    )
    sweep.add_argument(
        "--omega-p", type=_csv_floats, default=None, metavar="V1,V2",
        help="power-weight axis",
    )
    sweep.add_argument(
        "--omega-a", type=_csv_floats, default=None, metavar="V1,V2",
        help="area-weight axis",
    )
    sweep.add_argument("--name", default=None, help="sweep name for reports")
    sweep.add_argument("--seed", type=int, default=0, help="stimulus seed")
    sweep.add_argument(
        "--cycles", type=int, default=2000, help="simulation cycles per point"
    )
    sweep.add_argument(
        "--engine", choices=list(ENGINES), default="python",
        help="simulation backend for every point",
    )
    sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="experiment store directory: every computed point persists "
        "here and re-running the sweep resumes from it",
    )
    sweep.add_argument(
        "--url", default=None, metavar="URL",
        help="dispatch points through a running 'repro serve' instance "
        "instead of computing inline",
    )
    sweep.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stop after N newly-computed points (resume later)",
    )
    sweep.add_argument(
        "--report", default=None, metavar="FILE",
        help="write the text Pareto report to FILE",
    )
    sweep.add_argument(
        "--report-json", default=None, metavar="FILE",
        help="write the JSON Pareto report to FILE",
    )
    sweep.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    _add_obs_options(sweep)
    sweep.set_defaults(func=cmd_sweep)

    submit = subparsers.add_parser(
        "submit",
        help="submit a job to a running 'repro serve' instance",
    )
    submit.add_argument("netlist", nargs="?", help="textual netlist (.rtl) file")
    submit.add_argument("--builtin", help="built-in design name (e.g. design1)")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8352", help="server base URL"
    )
    submit.add_argument(
        "--method",
        choices=[
            "validate", "estimate", "optimize", "isolate", "rank",
            "compare", "activation",
        ],
        default="isolate",
        help="Session API method to run remotely",
    )
    submit.add_argument(
        "--style", choices=["and", "or", "latch"], default=None,
        help="isolation style (optimize/isolate/rank)",
    )
    submit.add_argument(
        "--styles", default=None, metavar="S1,S2",
        help="comma-separated styles (compare)",
    )
    submit.add_argument(
        "--passes", type=_parse_passes, default=None, metavar="P1,P2",
        help="comma-separated transform passes (optimize)",
    )
    submit.add_argument("--seed", type=int, default=0, help="stimulus seed")
    submit.add_argument(
        "--cycles", type=int, default=2000, help="simulation cycles per run"
    )
    submit.add_argument(
        "--warmup", type=int, default=None, help="warmup cycles"
    )
    submit.add_argument(
        "--engine", choices=list(ENGINES), default="python",
        help="simulation backend",
    )
    submit.add_argument(
        "--workers", type=_parse_workers, default=None, metavar="N|auto",
        help="process-pool width of a compare job's per-style runs",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="return after submission instead of polling to completion",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for completion",
    )
    submit.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )
    submit.set_defaults(func=cmd_submit)
    return parser


def _export_observability(
    args: argparse.Namespace, recorder: obs.Recorder
) -> int:
    """Write the recorded trace/metrics files requested on the command line."""
    try:
        trace_path = getattr(args, "trace", None)
        if trace_path:
            obs.write_chrome_trace(
                trace_path,
                recorder.tracer.roots,
                metrics=recorder.metrics.to_dict(),
            )
            _info(args, f"trace written to {trace_path}")
        metrics_path = getattr(args, "metrics", None)
        if metrics_path:
            with open(metrics_path, "w", encoding="utf-8") as fh:
                if metrics_path.endswith(".prom"):
                    fh.write(recorder.metrics.prometheus_text())
                else:
                    json.dump(recorder.metrics.to_dict(), fh, indent=2)
                    fh.write("\n")
            _info(args, f"metrics written to {metrics_path}")
    except OSError as exc:
        print(f"error: cannot write observability output: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    record = bool(
        getattr(args, "trace", None)
        or getattr(args, "metrics", None)
        or getattr(args, "always_record", False)
    )
    try:
        if not record:
            return args.func(args)
        with obs.use(obs.Recorder()) as recorder:
            code = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Export even on a non-zero exit (a failing run's trace is exactly the
    # one worth inspecting); the export error only masks a clean run.
    export_code = _export_observability(args, recorder)
    return code or export_code


if __name__ == "__main__":  # pragma: no cover - exercised via tests/main
    sys.exit(main())
