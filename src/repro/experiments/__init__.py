"""Per-figure reproduction drivers.

One module per paper figure (the paper has no numbered tables; the
evaluation artefacts are Figs. 2-9 and 11).  Each driver computes the
figure's data from the public API and returns plain dataclasses /
dicts; the ``benchmarks/`` suite times them and prints the same
rows/series the paper plots, and ``EXPERIMENTS.md`` records measured vs
paper values.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments import report
    from repro.experiments.fig2_iv_curves import fig2_iv_curves
    from repro.experiments.fig3_ldo import fig3_ldo_efficiency
    from repro.experiments.fig4_sc import fig4_sc_efficiency
    from repro.experiments.fig5_buck import fig5_buck_efficiency
    from repro.experiments.fig6_operating_points import (
        fig6a_power_curves,
        fig6b_regulated_comparison,
    )
    from repro.experiments.fig7_light_and_mep import (
        fig7a_light_sweep,
        fig7b_mep_comparison,
    )
    from repro.experiments.fig8_mppt import fig8_mppt_tracking
    from repro.experiments.sweep import ThroughputPoint, throughput_sweep
    from repro.experiments.fig9_sprint import (
        fig9a_completion_time,
        fig9b_sprint_gains,
    )
    from repro.experiments.fig11_demo import (
        fig11a_chip_characteristics,
        fig11b_sprint_waveform,
    )
    from repro.experiments.headline import headline_claims

__all__ = [
    "report",
    "fig2_iv_curves",
    "fig3_ldo_efficiency",
    "fig4_sc_efficiency",
    "fig5_buck_efficiency",
    "fig6a_power_curves",
    "fig6b_regulated_comparison",
    "fig7a_light_sweep",
    "fig7b_mep_comparison",
    "fig8_mppt_tracking",
    "fig9a_completion_time",
    "fig9b_sprint_gains",
    "fig11a_chip_characteristics",
    "fig11b_sprint_waveform",
    "headline_claims",
    "ThroughputPoint",
    "throughput_sweep",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.experiments": ("report",),
        "repro.experiments.fig2_iv_curves": ("fig2_iv_curves",),
        "repro.experiments.fig3_ldo": ("fig3_ldo_efficiency",),
        "repro.experiments.fig4_sc": ("fig4_sc_efficiency",),
        "repro.experiments.fig5_buck": ("fig5_buck_efficiency",),
        "repro.experiments.fig6_operating_points": (
            "fig6a_power_curves", "fig6b_regulated_comparison",
        ),
        "repro.experiments.fig7_light_and_mep": (
            "fig7a_light_sweep", "fig7b_mep_comparison",
        ),
        "repro.experiments.fig8_mppt": ("fig8_mppt_tracking",),
        "repro.experiments.sweep": ("ThroughputPoint", "throughput_sweep"),
        "repro.experiments.fig9_sprint": (
            "fig9a_completion_time", "fig9b_sprint_gains",
        ),
        "repro.experiments.fig11_demo": (
            "fig11a_chip_characteristics", "fig11b_sprint_waveform",
        ),
        "repro.experiments.headline": ("headline_claims",),
    },
)
