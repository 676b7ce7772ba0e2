"""Fleet engine -- lane bit-identity and campaign engine transparency.

Two claims, both correctness (nothing here is timed; the campaign
measurements in ``docs/performance.md`` carry the fleet's speed):

* **lane bit-identity**: the Fig. 8 MPPT closed loop (a 1.0 -> 0.3 sun
  step, one shared memoizing ``DischargeTimeMppTracker``, the SC
  regulator and a noiseless comparator bank) run through
  :class:`~repro.fleet.engine.FleetSimulator` at batch 1, 16 and one
  lane above :data:`~repro.fleet.pv.PER_LANE_MAX_LANES` equals N
  independent scalar runs exactly.  The first two solve the PV cell
  lane by lane, the last as one array Newton, so both PV paths are
  covered; the wider batches check that each lane's comparator bank
  observes every step independently at N > 1;
* **campaign engine transparency**: ``run_transient_campaign`` produces
  identical records through the scalar and fleet engines (the summaries
  come from the campaign cache shared with the parallel bench).
"""

import math
from dataclasses import asdict

from repro.core.mppt import DischargeTimeMppTracker, MppTrackingController
from repro.faults import CampaignConfig, FaultSpec
from repro.fleet import FleetNode, FleetSimulator
from repro.fleet.pv import PER_LANE_MAX_LANES
from repro.parallel.cache import characterized_system
from repro.pv.traces import step_trace
from repro.sim.engine import SimulationConfig, TransientSimulator
from repro.sim.result import results_bit_identical
from repro.units import micro_seconds, milli_seconds

BEFORE_SUNS, AFTER_SUNS = 1.0, 0.3
DURATION_S = milli_seconds(10)
DIM_TIME_S = DURATION_S / 3

#: Batch 1 is the scalar-equivalence probe; batch 16 runs one
#: comparator bank per lane across several lanes; the last batch is
#: wide enough for the array PV solve.
BATCHES = (1, 16, PER_LANE_MAX_LANES + 1)


def test_fleet_engine_bench_and_bit_identity():
    system, lut = characterized_system()
    # One memoizing tracker shared by every lane and every scalar run:
    # its operating-point memo is a pure function of irradiance, so
    # sharing it is value-transparent.
    tracker = DischargeTimeMppTracker(system, "sc", lut=lut)
    trace = step_trace(BEFORE_SUNS, AFTER_SUNS, DIM_TIME_S, DURATION_S)
    config = SimulationConfig(
        time_step_s=micro_seconds(10), record_every=4, stop_on_brownout=False
    )

    def parts():
        return dict(
            cell=system.cell,
            capacitor=system.new_node_capacitor(
                system.mpp(BEFORE_SUNS).voltage_v
            ),
            processor=system.processor,
            regulator=system.regulator("sc"),
            controller=MppTrackingController(
                tracker, initial_irradiance=BEFORE_SUNS
            ),
            comparators=system.new_comparator_bank(),
        )

    def scalar_run():
        node = parts()
        simulator = TransientSimulator(
            node_capacitor=node.pop("capacitor"), config=config, **node
        )
        return simulator.run(trace)

    for batch in BATCHES:
        scalar = [scalar_run() for _ in range(batch)]
        nodes = [FleetNode(**parts()) for _ in range(batch)]
        fleet = FleetSimulator(nodes, config=config).run([trace] * batch)
        assert len(fleet) == batch
        for lane, (want, got) in enumerate(zip(scalar, fleet)):
            assert results_bit_identical(want, got), (
                f"fleet lane {lane} of {batch} diverged from the scalar "
                "engine"
            )


def _records_equal(left, right) -> bool:
    """NaN-aware exact equality of two RunRecord lists."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        da, db = asdict(a), asdict(b)
        if set(da) != set(db):
            return False
        for key in da:
            va, vb = da[key], db[key]
            if isinstance(va, float) and isinstance(vb, float):
                if math.isnan(va) and math.isnan(vb):
                    continue
            if va != vb:
                return False
    return True


def test_campaign_engine_transparency(campaign_cache):
    """Scalar and fleet campaign engines agree record-for-record.

    Both summaries come from the shared campaign cache, so any other
    bench asking for this campaign reuses them.
    """
    spec = FaultSpec(comparator_offset_sigma_v=80e-3, flicker_depth_max=0.6)
    config = CampaignConfig(runs=6, duration_s=30e-3, dim_time_s=12e-3)
    scalar = campaign_cache.get(spec, config, engine="scalar")
    fleet = campaign_cache.get(spec, config, engine="fleet")
    assert _records_equal(scalar.records, fleet.records), (
        "fleet campaign records diverged from the scalar engine"
    )
    assert scalar.runs == fleet.runs == config.runs
