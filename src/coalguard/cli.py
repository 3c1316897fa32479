"""Command-line interface.

Verbs:
  validate <file>   check a scenario file; exit 1 with findings if invalid
  run <file>        advance the clock, optionally writing a JSONL trace;
                    exit 0 iff every executed tick ended secure
  analyze <file>    state-graph statistics, Horn relabelings, and the
                    minimal-coalition vulnerability audit
  bench             time greedy blocking on growing cycle instances

Exit codes: 0 success (and, for run, all ticks secure); 1 invalid scenario
or insecure run; 2 operational error (unreadable file, budget exceeded).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import (
    audit_vulnerabilities,
    build_state_graph,
    is_connected,
    iter_edge_lines,
)
from .bench import DEFAULT_SIZES, run_bench
from .engine import POLICIES, run_ticks
from .errors import CoalGuardError, ModalFormulaError
from .formula import find_horn_labeling, format_formula
from .scenario import load_scenario, override_config, write_trace

SLOPE_GATE = 3.5


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    description = "Keep critical formulas false while agents write their variables."
    parser = argparse.ArgumentParser(prog="coalguard", description=description)
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check a scenario file")
    validate.add_argument("scenario")
    validate.set_defaults(handler=cmd_validate)

    run = commands.add_parser("run", help="run ticks under a blocking policy")
    run.add_argument("scenario")
    run.add_argument("--ticks", type=int, default=1, help="clock ticks to advance (default 1)")
    run.add_argument("--policy", choices=POLICIES, help="override the scenario's policy")
    run.add_argument("--seed", type=int, help="override the scenario's random seed")
    run.add_argument("--trace", metavar="OUT", help="write a JSONL trace to this path")
    run.add_argument("--allow-insecure-start", action="store_true",
                     help="accept a scenario whose initial state satisfies a critical formula")
    run.set_defaults(handler=cmd_run)

    analyze = commands.add_parser("analyze", help="inspect a scenario without running it")
    analyze.add_argument("scenario")
    analyze.add_argument("--state-graph", action="store_true", help="graph statistics only")
    analyze.add_argument("--horn", action="store_true", help="Horn relabelings only")
    analyze.add_argument("--audit", action="store_true", help="vulnerability audit only")
    analyze.add_argument("--export-edges", metavar="OUT",
                         help="also write the state graph as a text edge list")
    analyze.set_defaults(handler=cmd_analyze)

    bench = commands.add_parser("bench", help="time greedy blocking on synthetic instances")
    bench.add_argument("--sizes", type=_comma_ints, default=DEFAULT_SIZES,
                       help="comma-separated instance sizes (default 25,50,100,200)")
    bench.add_argument("--seed", type=int, default=0, help="request-order shuffle seed")
    bench.set_defaults(handler=cmd_bench)

    return parser


def cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except CoalGuardError as exc:
        print(f"invalid: {exc}")
        return 1
    model = scenario.model
    print(f"ok: {len(model.agents)} agents, {len(model.variables)} variables, "
          f"{len(model.critical_formulas)} critical formulas, "
          f"{len(scenario.queue)} queued requests")
    return 0


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, allow_insecure_start=args.allow_insecure_start)
    config = override_config(scenario.config, args.policy, args.seed)
    result = run_ticks(scenario.model, scenario.initial_state, scenario.queue, config, args.ticks)
    for record in result.records:
        verdict = "secure" if record.secure else "INSECURE"
        blocked = ",".join(record.blocked) if record.blocked else "-"
        print(f"tick {record.tick}: batch={len(record.batch)} "
              f"blocked=[{blocked}] executed={len(record.executed)} {verdict}")
    if args.trace:
        write_trace(result.records, args.trace)
        print(f"trace written to {args.trace}")
    if result.all_secure:
        print(f"run: secure after {len(result.records)} tick(s)")
        return 0
    print("run: INSECURE")
    return 1


def _print_graph_section(scenario, export_path: Optional[str]) -> None:
    graph = build_state_graph(scenario.model)
    secure_count = graph.secure_bits.bit_count()
    print("state graph:")
    print(f"  vertices: {graph.num_vertices}")
    print(f"  edges: {graph.num_edges}")
    full = "connected" if is_connected(graph) else "disconnected"
    print(f"  full graph: {full}")
    secure = "connected" if is_connected(graph, restrict_to_secure=True) else "disconnected"
    print(f"  secure vertices: {secure_count} ({secure})")
    if export_path:
        with open(export_path, "w", encoding="utf-8") as handle:
            for line in iter_edge_lines(graph):
                handle.write(line + "\n")
        print(f"  edge list written to {export_path}")


def _print_horn_section(scenario) -> None:
    print("Horn relabelings:")
    for index, formula in enumerate(scenario.model.critical_formulas):
        text = format_formula(formula)
        try:
            labeling = find_horn_labeling(formula)
        except ModalFormulaError:
            print(f"  formula[{index}] {text}: skipped (modal operator)")
            continue
        if labeling is None:
            print(f"  formula[{index}] {text}: not renamable Horn")
        elif not labeling.flipped:
            print(f"  formula[{index}] {text}: renamable Horn (already Horn, no flips)")
        else:
            parts = ", ".join(
                f"{v}: {'flip' if v in labeling.flipped else 'keep'}"
                for v in labeling.variables
            )
            print(f"  formula[{index}] {text}: renamable Horn ({parts})")


def _print_audit_section(scenario) -> None:
    print("vulnerability audit (minimal coalitions at the initial state):")
    findings = audit_vulnerabilities(scenario.model, scenario.initial_state)
    if not findings:
        print("  none: no coalition can make any critical formula true")
        return
    for finding in findings:
        text = format_formula(finding.formula)
        coalition = ", ".join(finding.coalition)
        settings = ", ".join(
            f"{v}={'true' if value else 'false'}"
            for v, value in sorted(finding.witness.assignment.items())
        ) or "no change needed"
        print(f"  formula[{finding.formula_index}] {text}: {{{coalition}}} via {settings}")


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario, allow_insecure_start=True)
    chosen = args.state_graph or args.horn or args.audit
    if args.state_graph or args.export_edges or not chosen:
        _print_graph_section(scenario, args.export_edges)
    if args.horn or not chosen:
        _print_horn_section(scenario)
    if args.audit or not chosen:
        _print_audit_section(scenario)
    return 0


def cmd_bench(args) -> int:
    report = run_bench(args.sizes, args.seed)
    print("size  seconds  iterations  blocked")
    for row in report.rows:
        print(f"{row.size:>4}  {row.seconds:7.4f}  {row.iterations:>10}  {row.blocked:>7}")
    print(f"log-log slope: {report.slope:.3f}")
    if report.slope > SLOPE_GATE:
        print(f"warning: slope exceeds the soft gate of {SLOPE_GATE}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CoalGuardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
