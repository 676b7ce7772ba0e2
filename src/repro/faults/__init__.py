"""Seeded fault injection and Monte Carlo robustness campaigns.

:mod:`repro.faults.models` samples physical non-idealities (comparator
offsets, capacitor leakage, converter derating, soiled/flickering
light, checkpoint bit flips) into deterministic per-seed draws;
:mod:`repro.faults.campaign` fans those draws across the transient
simulator and the intermittent runtime and aggregates survival,
brownout-recovery and throughput-degradation statistics.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.faults.campaign import (
        FLEET_AUTO_MIN_BATCH,
        SCHEMES,
        CampaignConfig,
        CampaignSummary,
        IntermittentCampaignConfig,
        IntermittentCampaignSummary,
        IntermittentRunRecord,
        RunRecord,
        resolve_engine,
        run_intermittent_campaign,
        run_transient_campaign,
    )
    from repro.faults.models import (
        FaultDraw,
        FaultSpec,
        apply_regulator_derating,
        describe,
        draw_faults,
        faulted_comparator_bank,
        faulted_node_capacitor,
        faulted_system,
        faulted_trace,
        ideal_draw,
    )

__all__ = [
    "FLEET_AUTO_MIN_BATCH",
    "SCHEMES",
    "CampaignConfig",
    "CampaignSummary",
    "FaultDraw",
    "FaultSpec",
    "IntermittentCampaignConfig",
    "IntermittentCampaignSummary",
    "IntermittentRunRecord",
    "RunRecord",
    "apply_regulator_derating",
    "describe",
    "draw_faults",
    "faulted_comparator_bank",
    "faulted_node_capacitor",
    "faulted_system",
    "faulted_trace",
    "ideal_draw",
    "resolve_engine",
    "run_intermittent_campaign",
    "run_transient_campaign",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.faults.campaign": (
            "FLEET_AUTO_MIN_BATCH", "SCHEMES", "CampaignConfig",
            "CampaignSummary", "IntermittentCampaignConfig",
            "IntermittentCampaignSummary", "IntermittentRunRecord",
            "RunRecord", "resolve_engine", "run_intermittent_campaign",
            "run_transient_campaign",
        ),
        "repro.faults.models": (
            "FaultDraw", "FaultSpec", "apply_regulator_derating", "describe",
            "draw_faults", "faulted_comparator_bank",
            "faulted_node_capacitor", "faulted_system", "faulted_trace",
            "ideal_draw",
        ),
    },
)
