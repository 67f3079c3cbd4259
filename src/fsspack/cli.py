"""Command line interface.

Subcommands: run a search over one problem and several sizes, verify a
layout file, render a layout to SVG.  Exit codes: 0 success, 1 infeasible,
or a run size that reached no positive radius or lost a worker, 2 usage
errors, unreadable or malformed input files and unwritable output paths.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import SEED_LIMIT, EngineError, FssConfig, run
from .geometry import (
    Instance,
    LayoutFormatError,
    format_radius,
    load_layout,
    save_layout,
    verify_layout,
)
from .instances import (
    InstanceFormatError,
    UnknownInstanceError,
    builtin_instance,
    instance_from_name,
    load_instance,
)
from .render import render_svg
from .reporting import ResultRow, write_results_csv, write_results_json

USAGE_ERROR = 2


class _CliError(Exception):
    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _parse_n_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        # isdigit() also accepts digits such as '²' that int() rejects.
        if not part.isdecimal() or int(part) < 1:
            raise _CliError(f"--n expects positive integers, got {text!r}", USAGE_ERROR)
        out.append(int(part))
    if not out:
        raise _CliError("--n must name at least one size", USAGE_ERROR)
    return out


def _read(load, path: str, kind: str):
    """load(path), with every unreadable or malformed file a usage error."""
    try:
        return load(path)
    except FileNotFoundError:
        raise _CliError(f"no such {kind} file: {path}", USAGE_ERROR) from None
    except OSError as exc:
        raise _CliError(
            f"cannot read {kind} file {path}: {exc.strerror or exc}", USAGE_ERROR
        ) from None
    except (LayoutFormatError, InstanceFormatError) as exc:
        raise _CliError(str(exc), USAGE_ERROR) from None


def _write(save, path, kind: str) -> None:
    """save(path), with every path that cannot be written a usage error."""
    try:
        save(path)
    except OSError as exc:
        raise _CliError(
            f"cannot write {kind} {path}: {exc.strerror or exc}", USAGE_ERROR
        ) from None


def _resolve_problem(token: str, f_count: int | None) -> tuple[Instance, str, int | None]:
    """Returns (instance, problem label, f_count for reporting)."""
    if token.isdecimal():
        pid = int(token)
        try:
            instance = builtin_instance(pid, f_count)
        except ValueError as exc:
            raise _CliError(str(exc), USAGE_ERROR) from None
        reported = instance.f_count if pid == 1 else None
        return instance, str(pid), reported
    if f_count is not None:
        raise _CliError("--fcount only applies to problem 1", USAGE_ERROR)
    instance = _read(load_instance, token, "instance")
    return instance, instance.name, None


def _load_layout_and_instance(layout_path: str, instance_path: str | None):
    layout, name = _read(load_layout, layout_path, "layout")
    if instance_path is not None:
        instance = _read(load_instance, instance_path, "instance")
    else:
        try:
            instance = instance_from_name(name)
        except UnknownInstanceError:
            raise _CliError(
                f"layout references unknown instance {name!r}; pass --instance", USAGE_ERROR
            ) from None
    return layout, instance


def _cmd_run(args: argparse.Namespace) -> int:
    for flag, value in (
        ("--iterations", args.iterations),
        ("--replications", args.replications),
        ("--workers", args.workers),
    ):
        if value < 1:
            raise _CliError(f"{flag} must be at least 1, got {value}", USAGE_ERROR)
    if not 0 <= args.seed < SEED_LIMIT:
        raise _CliError(f"--seed must be in [0, 2**64), got {args.seed}", USAGE_ERROR)
    instance, label, f_count = _resolve_problem(args.problem, args.fcount)
    sizes = _parse_n_list(args.n)
    out_dir = Path(args.out)
    _write(lambda path: path.mkdir(parents=True, exist_ok=True), out_dir, "output directory")

    rows: list[ResultRow] = []
    failed = False
    for n in sizes:
        config = FssConfig(
            n=n,
            iterations=args.iterations,
            replications=args.replications,
            seed=args.seed,
        )
        try:
            report = run(instance, config, workers=args.workers)
        except EngineError as exc:
            print(f"error: {instance.name} n={n}: {exc}", file=sys.stderr)
            failed = True
            continue
        layout_path = out_dir / f"{instance.name}-n{n}.json"
        _write(
            lambda path: save_layout(report.best_layout, instance.name, path),
            layout_path,
            "layout file",
        )
        rows.append(
            ResultRow(
                problem=label,
                f_count=f_count,
                n=n,
                best_radius=report.best_radius,
                total_time_s=report.total_elapsed,
                replication_of_best=report.replication_of_best,
                seed=args.seed,
            )
        )
        print(
            f"{instance.name} n={n}: best radius {format_radius(report.best_radius)} "
            f"(replication {report.replication_of_best}, {report.total_elapsed:.1f}s) "
            f"-> {layout_path}"
        )

    _write(lambda path: write_results_csv(rows, path), out_dir / "results.csv", "results file")
    _write(lambda path: write_results_json(rows, path), out_dir / "results.json", "results file")
    return 1 if failed else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not (args.tol >= 0.0):
        raise _CliError(f"--tol must be nonnegative, got {args.tol}", USAGE_ERROR)
    layout, instance = _load_layout_and_instance(args.layout, args.instance)
    report = verify_layout(layout, instance, args.tol)
    verdict = "feasible" if report.feasible else "INFEASIBLE"
    print(f"{args.layout}: {verdict} at tol {args.tol:g}")
    print(f"  containment violation: {report.worst_containment_violation:.3e}")
    print(f"  pairwise violation:    {report.worst_pairwise_violation:.3e}")
    print(f"  prohibited violation:  {report.worst_prohibited_violation:.3e}")
    if not report.feasible:
        print(f"  worst: {report.describe_worst()}")
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    _write(
        lambda path: Path(path).write_text(text, encoding="utf-8"),
        args.report or (args.layout + ".verify.json"),
        "report file",
    )
    return 0 if report.feasible else 1


def _cmd_render(args: argparse.Namespace) -> int:
    layout, instance = _load_layout_and_instance(args.layout, args.instance)
    svg = render_svg(layout, instance)
    _write(lambda path: Path(path).write_text(svg, encoding="utf-8"), args.svg, "SVG file")
    print(f"wrote {args.svg}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsspack",
        description="Pack identical circles in the unit disk around prohibited areas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="search one problem over one or more sizes")
    p_run.add_argument("--problem", required=True, help="bundled id 1..6 or instance file path")
    p_run.add_argument("--fcount", type=int, default=None, help="truncate problem 1 to 4..11 disks")
    p_run.add_argument("--n", required=True, help="circle count, or comma list like 5,10,20")
    p_run.add_argument(
        "--iterations", type=int, default=80, help="at most this many iterations per replication"
    )
    p_run.add_argument("--replications", type=int, default=25, help="independent restarts")
    p_run.add_argument("--seed", type=int, default=0, help="base seed for the replication streams")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--workers", type=int, default=1, help="parallel replication workers")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="check a layout file")
    p_verify.add_argument("layout", help="layout JSON path")
    p_verify.add_argument("--tol", type=float, default=1e-10, help="violation tolerance")
    p_verify.add_argument("--instance", default=None, help="instance file for custom layouts")
    p_verify.add_argument("--report", default=None, help="where to write the JSON report")
    p_verify.set_defaults(func=_cmd_verify)

    p_render = sub.add_parser("render", help="render a layout to SVG")
    p_render.add_argument("layout", help="layout JSON path")
    p_render.add_argument("--svg", required=True, help="output SVG path")
    p_render.add_argument("--instance", default=None, help="instance file for custom layouts")
    p_render.set_defaults(func=_cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
