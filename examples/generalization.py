#!/usr/bin/env python
"""Generalizing the twin to other machines (paper Section V).

Everything is driven from JSON system specifications: this example loads
the bundled Marconi100 and Setonix descriptions, generates their cooling
models with AutoCSM, builds their descriptive-twin scene graphs, and
runs a short simulation on each — no code changes per machine.
"""

import numpy as np

from repro import DigitalTwin, SyntheticScenario, load_builtin_system
from repro.config import builtin_system_names
from repro.cooling.autocsm import autocsm_report
from repro.viz.scene import build_scene


def main() -> None:
    print("Bundled system specs:", ", ".join(builtin_system_names()))

    for name in ("marconi100", "setonix"):
        spec = load_builtin_system(name)
        print()
        print("=" * 64)
        print(autocsm_report(spec))

        scene = build_scene(spec)
        w, d, h = scene.bounding_box()
        print()
        print(
            f"Scene graph: {scene.count('rack')} racks, "
            f"{scene.count('cdu')} CDUs, "
            f"{scene.count('cooling_tower')} towers "
            f"({w:.0f} x {d:.0f} m floor)"
        )

        outcome = SyntheticScenario(duration_s=1800.0, seed=7).run(
            DigitalTwin(spec)
        )
        stats = outcome.statistics
        pue = float(np.mean(outcome.result.cooling["pue"]))
        print(
            f"30 min synthetic run: {stats.jobs_completed} jobs done, "
            f"{stats.mean_power_mw:.2f} MW avg, "
            f"PUE {pue:.3f}"
        )
        if len(spec.partitions) > 1:
            print(
                "Partitions:",
                ", ".join(
                    f"{p.name} ({p.total_nodes} nodes)"
                    for p in spec.partitions
                ),
            )


if __name__ == "__main__":
    main()
