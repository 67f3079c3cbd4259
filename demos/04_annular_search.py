"""Full search on a prohibited-area problem, rendered to SVG.

Packs circles around the bundled central-disk instance and writes the
best layout as a picture next to this script.
"""

from pathlib import Path

from fsspack import FssConfig, builtin_instance, format_radius, render_svg, run, save_layout


def main() -> None:
    instance = builtin_instance(2)
    n = 6
    config = FssConfig(n=n, iterations=40, replications=8, seed=0)
    print(f"packing {n} circles in {instance.name} "
          f"({config.iterations} iterations x {config.replications} replications)")
    report = run(instance, config)
    print(f"best radius {format_radius(report.best_radius)} "
          f"from replication {report.replication_of_best} "
          f"in {report.total_elapsed:.1f}s")
    # A replication stops early once a solve hands back its start.
    print(f"{report.nlp_solves} solves run of a budget of "
          f"{config.iterations * config.replications}")

    for rep_index, traces in enumerate(report.traces):
        tail = traces[-1]
        print(f"  replication {rep_index}: best {format_radius(tail.r_best)} "
              f"after {len(traces)} solves")

    out_dir = Path(__file__).parent / "out"
    out_dir.mkdir(exist_ok=True)
    layout_path = out_dir / f"{instance.name}-n{n}.json"
    svg_path = out_dir / f"{instance.name}-n{n}.svg"
    save_layout(report.best_layout, instance.name, layout_path)
    svg_path.write_text(render_svg(report.best_layout, instance))
    print(f"wrote {layout_path}")
    print(f"wrote {svg_path}")


if __name__ == "__main__":
    main()
