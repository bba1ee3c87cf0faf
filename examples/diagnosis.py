"""Causal diagnosis: ask a storm-under-churn run *why* its worst epoch cost.

Run with::

    python examples/diagnosis.py

The same 400-node storm-under-churn workload as ``observability.py`` — a
crash storm at epoch 4, partial rejoins at epoch 8, background churn, a
charged heartbeat detector — but this time the tracer carries the full
causal diagnosis layer:

- a :class:`repro.telemetry.FlightRecorder` ring that captures every causal
  event (fault injections, heartbeat misses, adoptions, elections, cache
  evictions, suppression flips) with ``cause_event_id`` links back to the
  event that triggered it, and
- a :class:`repro.telemetry.CostAttribution` sink that folds each epoch
  span's per-node ledger delta into cumulative columns, top-k hotspots and
  quantiles — without charging a bit, and without taking a single extra
  ledger mark.

After the run, :func:`repro.telemetry.diagnose` replays the trace: a
rolling median/MAD detector flags the anomalous epochs, and each flag is
explained by walking the flight-recorder events backwards to a root cause.
The output ends with the "why" report for the *worst* epoch — the storm,
named as the injected fault that started the chain.
"""

from __future__ import annotations

from repro import (
    ContinuousQueryEngine,
    CountQuery,
    FaultEngine,
    HeartbeatDetector,
    MedianQuery,
    RootElection,
    SensorNetwork,
    SpanTracer,
    run_faulty_stream,
)
from repro.telemetry import CostAttribution, FlightRecorder, diagnose, verdict
from repro.workloads import ChurnStream, storm_under_churn_script

NUM_NODES = 400
EPOCHS = 12
STORM_EPOCH = 4
REJOIN_EPOCH = 8
DOMAIN = 1 << 16
EPSILON = 0.1


def main() -> None:
    network = SensorNetwork.from_items(
        [0] * NUM_NODES, topology="random_geometric", seed=0, degree_bound=None
    )
    network.clear_items()
    engine = ContinuousQueryEngine(network, epsilon=EPSILON)
    engine.register("count", CountQuery())
    engine.register("median", MedianQuery(universe_size=DOMAIN, compression=256))
    script = storm_under_churn_script(
        network.node_ids(),
        epochs=EPOCHS,
        storm_epoch=STORM_EPOCH,
        storm_fraction=0.2,
        rejoin_epoch=REJOIN_EPOCH,
        seed=0,
    )
    faults = FaultEngine(
        network,
        script=script,
        detector=HeartbeatDetector(period=2),
        election=RootElection(),
    )
    stream = ChurnStream(NUM_NODES, max_value=DOMAIN, seed=3)

    tracer = SpanTracer(flight=FlightRecorder(), attribution=CostAttribution())
    run_faulty_stream(engine, stream, faults, epochs=EPOCHS, telemetry=tracer)

    print(
        f"flight ring captured {len(tracer.flight)} causal events "
        f"({tracer.flight.dropped} dropped); attribution folded "
        f"{len(tracer.attribution.epochs)} epoch(s) into one "
        f"{tracer.attribution.cumulative.size}-node column"
    )
    print()

    diagnosis = diagnose(list(tracer.iter_dicts()))
    print(diagnosis.render())
    print()

    worst = diagnosis.worst()
    if worst is None:
        print("no anomaly to explain — rerun with a sharper storm")
        return
    print(f"why the worst epoch (epoch {worst.epoch}) cost what it did:")
    for line in worst.render().splitlines():
        print(f"  {line}")
    print()
    summary = verdict(diagnosis)
    print(
        f"verdict: {summary['anomalies']} anomaly flag(s) across epochs "
        f"{summary['anomalous_epochs']}, {summary['attributed']} attributed "
        f"(root causes: {summary['root_cause_kinds']})"
    )


if __name__ == "__main__":
    main()
