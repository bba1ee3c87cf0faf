"""Seed → inputs for each workload, through the library's public API only.

The field's layout is fixed (``spec.FIELD_SEED``); everything that happens
on it — items, stream, fault script, radio losses, sketch seeds — derives
from the one ``seed``, so two builds with the same seed hand the program
byte-identical inputs.  Builders take the execution
mode and the field size as overrides so the differential verify and the
smoke set reuse the very same construction code as the full run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import (
    ApproximateMedianProtocol,
    DeterministicMedianProtocol,
    DeterministicOrderStatisticProtocol,
    PolyloglogMedianProtocol,
    RepetitionPolicy,
)
from repro.distinct import ApproxDistinctCountProtocol, ExactDistinctCountProtocol
from repro.faults import (
    FaultEngine,
    FaultScript,
    HeartbeatDetector,
    RootCrash,
    TreeRepair,
)
from repro.network import LossyRadio, SensorNetwork
from repro.protocols import (
    ApproxCountProtocol,
    AverageProtocol,
    CountProtocol,
    MaxProtocol,
    MinProtocol,
    SumProtocol,
)
from repro.streaming import (
    CountQuery,
    DistinctCountQuery,
    PredicateCountQuery,
    QuantileQuery,
    engine_for,
)
from repro.telemetry import CostAttribution, FlightRecorder, SpanTracer
from repro.tenancy import MultiTenantEngine
from repro.workloads import DriftStream, uniform_values
from repro.workloads.faults import churn_script, storm_under_churn_script

from benchmarks.perf import spec


@dataclass
class StreamCase:
    """One built stream workload, ready for ``run_faulty_stream``."""

    network: SensorNetwork
    engine: Any
    stream: DriftStream
    faults: FaultEngine
    epochs: int
    telemetry: SpanTracer | None = None


def below_mid() -> PredicateCountQuery:
    mid = spec.VALUE_MAX // 2
    return PredicateCountQuery(lambda item: item < mid, description=f"x < {mid}")


def _field(n: int, execution: str) -> SensorNetwork:
    """The random-geometric field of the three count-path workloads."""
    network = SensorNetwork.from_items(
        [0] * n,
        topology="random_geometric",
        seed=spec.FIELD_SEED,
        degree_bound=None,
        execution=execution,
    )
    network.clear_items()
    return network


def _count_engine(network: SensorNetwork):
    engine = engine_for(network, epsilon=spec.EPSILON)
    engine.register("count", CountQuery())
    engine.register("below_mid", below_mid())
    return engine


def _case(network, engine, script, epochs, seed, telemetry=None) -> StreamCase:
    return StreamCase(
        network=network,
        engine=engine,
        stream=DriftStream(
            network.num_nodes,
            max_value=spec.VALUE_MAX,
            seed=seed,
            drift_fraction=spec.DRIFT_FRACTION,
        ),
        faults=FaultEngine(
            network,
            script=script,
            repair=TreeRepair(),
            seed=seed,
            detector=HeartbeatDetector(period=1),
        ),
        epochs=epochs,
        telemetry=telemetry,
    )


def _quiet_drift(n, epochs, seed, execution) -> StreamCase:
    network = _field(n, execution or "vectorized")
    return _case(network, _count_engine(network), None, epochs, seed)


def _observed_quiet(n, epochs, seed, execution) -> StreamCase:
    case = _quiet_drift(n, epochs, seed, execution)
    case.telemetry = SpanTracer(
        flight=FlightRecorder(), attribution=CostAttribution()
    )
    return case


def _storm_churn(n, epochs, seed, execution) -> StreamCase:
    network = _field(n, execution or "vectorized")
    script = storm_under_churn_script(
        network.node_ids(),
        epochs,
        storm_epoch=epochs // 4,
        storm_fraction=spec.STORM_FRACTION,
        rejoin_epoch=epochs // 2,
        churn_rate=spec.CHURN_RATE,
        seed=seed,
        rejoin_value_max=spec.VALUE_MAX,
    ).merge(FaultScript({3 * epochs // 4: [RootCrash()]}))
    return _case(network, _count_engine(network), script, epochs, seed)


def tenant_mix() -> list[tuple[str, str, Any]]:
    """32 tenants cycling COUNT / q-digest / distinct / COUNTP → 4 legs."""
    fractions = (0.5, 0.25, 0.75)
    mix = []
    for index in range(spec.TENANTS):
        kind = index % 4
        if kind == 0:
            name, query = "count", CountQuery()
        elif kind == 1:
            name = "quantile"
            query = QuantileQuery(
                fractions[(index // 4) % len(fractions)],
                universe_size=spec.VALUE_MAX + 1,
                compression=256,
            )
        elif kind == 2:
            name, query = "distinct", DistinctCountQuery(num_registers=64)
        else:
            name, query = "below_mid", below_mid()
        mix.append((f"tenant{index:02d}", name, query))
    return mix


def _tenants_lossy(n, epochs, seed, execution) -> StreamCase:
    network = SensorNetwork.from_items(
        [0] * n,
        topology="grid",
        radio=LossyRadio(spec.LOSS_RATE, seed=seed),
        execution=execution or "batched",
    )
    network.clear_items()
    service = MultiTenantEngine(network, epsilon=spec.EPSILON)
    for tenant, name, query in tenant_mix():
        service.register(tenant, name, query)
    script = churn_script(
        network.node_ids(),
        epochs=max(1, epochs - 1),
        churn_rate=spec.CHURN_RATE,
        seed=seed,
        rejoin_value_max=spec.VALUE_MAX,
    )
    return _case(network, service, script, epochs, seed)


_STREAM_BUILDERS: dict[str, Callable[..., StreamCase]] = {
    "quiet_drift": _quiet_drift,
    "storm_churn": _storm_churn,
    "observed_quiet": _observed_quiet,
    "tenants_lossy": _tenants_lossy,
}


def build_stream(
    name: str,
    seed: int,
    smoke: bool = False,
    *,
    n: int | None = None,
    epochs: int | None = None,
    execution: str | None = None,
) -> StreamCase:
    """Build stream workload ``name``; overrides serve the differential verify."""
    size = spec.sizes(smoke)[name]
    return _STREAM_BUILDERS[name](
        n if n is not None else size["n"],
        epochs if epochs is not None else size["epochs"],
        seed,
        execution,
    )


# --------------------------------------------------------------------------- #
# oneshot_paper
# --------------------------------------------------------------------------- #
@dataclass
class Query:
    """One one-shot query: the span it reports under and how to check it."""

    span: str
    label: str
    protocol: Any
    #: Which rule of ``verify.score_query`` checks the answer.
    kind: str
    params: dict = field(default_factory=dict)


@dataclass
class OneshotCase:
    network: SensorNetwork
    domain: int
    rounds: int
    seed: int

    def round_items(self, round_index: int) -> list[int]:
        """The field's readings for one round: a fresh uniform draw each.

        What the sketch-based medians cost depends strongly on the item set
        (APX_MEDIAN2 alone ranges 320 - 980 ms over draws at this size), so a
        run spreads its rounds over several draws instead of measuring one.
        """
        return uniform_values(
            self.network.num_nodes,
            max_value=self.domain,
            seed=self.seed * 1009 + round_index,
        )

    def load_round(self, round_index: int) -> list[int]:
        """Install round ``round_index``'s readings (sensing is free)."""
        items = self.round_items(round_index)
        self.network.assign_items(
            {node: [value] for node, value in zip(self.network.node_ids(), items)}
        )
        return items

    def round_queries(self, round_index: int) -> list[Query]:
        """The 12 queries of one round; sketch seeds are ``seed + round``."""
        domain = self.domain
        sketch_seed = self.seed + round_index
        quantile = (0.1, 0.25, 0.75, 0.9)[round_index % 4]
        return [
            Query(
                "core.median",
                "MEDIAN",
                DeterministicMedianProtocol(domain_max=domain),
                "order_statistic",
                {"quantile": 0.5},
            ),
            Query(
                "core.order_statistic",
                f"OS(q={quantile})",
                DeterministicOrderStatisticProtocol(
                    quantile=quantile, domain_max=domain
                ),
                "order_statistic",
                {"quantile": quantile},
            ),
            Query(
                "core.apx_median",
                "APX_MEDIAN",
                ApproximateMedianProtocol(
                    epsilon=0.2,
                    num_registers=64,
                    repetition_policy=RepetitionPolicy.practical(cap=2),
                    seed=sketch_seed,
                ),
                "apx_median",
            ),
            Query(
                "core.apx_median2",
                "APX_MEDIAN2",
                PolyloglogMedianProtocol(
                    num_registers=64,
                    repetition_policy=RepetitionPolicy.practical(cap=1),
                    seed=sketch_seed,
                ),
                "apx_median2",
            ),
            Query(
                "protocols.apx_count",
                "APX_COUNT",
                ApproxCountProtocol(num_registers=64, seed=sketch_seed),
                "apx_count",
            ),
            Query(
                "distinct.approx",
                "APX_DISTINCT",
                ApproxDistinctCountProtocol(num_registers=64, seed=sketch_seed),
                "apx_distinct",
            ),
            Query(
                "distinct.exact",
                "DISTINCT",
                ExactDistinctCountProtocol(domain_max=domain),
                "exact",
                {"truth": "distinct"},
            ),
            Query("protocols.aggregates", "MIN", MinProtocol(domain_max=domain),
                  "exact", {"truth": "min"}),
            Query("protocols.aggregates", "MAX", MaxProtocol(domain_max=domain),
                  "exact", {"truth": "max"}),
            Query("protocols.aggregates", "COUNT", CountProtocol(),
                  "exact", {"truth": "count"}),
            Query("protocols.aggregates", "SUM", SumProtocol(),
                  "exact", {"truth": "sum"}),
            Query("protocols.aggregates", "AVG", AverageProtocol(),
                  "exact", {"truth": "avg"}),
        ]


def build_oneshot(
    seed: int, smoke: bool = False, *, execution: str | None = None
) -> OneshotCase:
    size = spec.sizes(smoke)["oneshot_paper"]
    n = size["n"]
    network = SensorNetwork.from_items(
        [0] * n,
        topology="random_geometric",
        seed=spec.FIELD_SEED,
        execution=execution or "batched",
    )
    return OneshotCase(network, n * n, size["rounds"], seed)
