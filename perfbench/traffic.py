"""Traffic workloads: the flow-level engine on HB and HD, with output checks.

``traffic_uniform`` paces uniform flows over HB(5,9) (the Cayley-oracle
route path); ``traffic_hotspot_faults`` injects hotspot flows into HD(4,11)
at tick 0 under a generated transient node+link fault schedule (the
closed-form HD route builder, many narrow ticks, fault replay).  The fault
arrivals are packed into the first ticks, while the uniform half of the
hotspot traffic is still in flight, so node- and link-fault drops occur.

Every library call goes through ``ops.call`` under the layer span name the
per-layer metrics use.  Checks run under the ``checks`` span.
"""

from __future__ import annotations

import random
from typing import Any

from perfbench.tracing import Ops

UNIFORM = {"m": 5, "n": 9, "flows": 50_000, "per_tick": 5_000}
HOTSPOT = {"m": 4, "n": 11, "flows": 10_000}
#: about 1k transient node+link faults in the first 100 of the ~5k ticks
HOTSPOT_FAULTS = {"rate": 10.0, "horizon": 100.0, "kinds": ("node", "link")}

#: flows whose routes are checked hop by hop
ROUTE_SAMPLE = 64
#: flows per event-simulator identity pin, and the pins' fault schedule
PIN_FLOWS = 120
PIN_FAULTS = {"rate": 0.5, "horizon": 40.0, "kinds": ("node", "link")}

MODULES = (
    "numpy",
    "repro.core.hyperbutterfly",
    "repro.topologies.hyperdebruijn",
    "repro.faults.dynamic",
    "repro.simulation.flow",
    "repro.simulation.network",
    "repro.simulation.protocols",
    "repro.simulation.workloads",
)


def _pin_topologies() -> tuple:
    from repro.core.hyperbutterfly import HyperButterfly
    from repro.topologies.hyperdebruijn import HyperDeBruijn

    return (HyperButterfly(2, 3), HyperDeBruijn(2, 3))


def setup_uniform(tracer: Any) -> dict:
    from repro.core.hyperbutterfly import HyperButterfly

    with tracer.span("setup.topology"):
        hb = HyperButterfly(UNIFORM["m"], UNIFORM["n"])
        pins = _pin_topologies()
    # the oracle's BFS tables; routes_block derives its word tables per call
    with tracer.span("cayley.oracle"):
        hb.oracle
    return {"net": hb, "pins": pins}


def setup_hotspot(tracer: Any) -> dict:
    from repro.fastgraph.backend import get_fastgraph
    from repro.topologies.hyperdebruijn import HyperDeBruijn

    with tracer.span("setup.topology"):
        hd = HyperDeBruijn(HOTSPOT["m"], HOTSPOT["n"])
        pins = _pin_topologies()
    # FaultSchedule.generate walks the edges, which come from the CSR
    with tracer.span("fastgraph.build_csr"):
        get_fastgraph(hd).csr
    return {"net": hd, "pins": pins}


def job_uniform(state: dict, seed: int, ops: Ops) -> tuple[int, dict]:
    from repro.simulation.workloads import build_workload

    hb = state["net"]
    traffic = ops.call(
        "workloads.build_workload",
        build_workload,
        hb,
        "uniform",
        count=UNIFORM["flows"],
        seed=seed,
        per_tick=UNIFORM["per_tick"],
    )
    return _simulate(state, traffic, None, seed, ops, family="uniform")


def job_hotspot(state: dict, seed: int, ops: Ops) -> tuple[int, dict]:
    from repro.faults.dynamic import FaultSchedule
    from repro.simulation.workloads import build_workload

    hd = state["net"]
    traffic = ops.call(
        "workloads.build_workload",
        build_workload,
        hd,
        "hotspot",
        count=HOTSPOT["flows"],
        seed=seed,
    )
    schedule = ops.call(
        "faults.schedule_generate",
        FaultSchedule.generate,
        hd,
        seed=seed,
        **HOTSPOT_FAULTS,
    )
    ops.tracer.count("faults.events", len(schedule))
    work, outputs = _simulate(state, traffic, schedule, seed, ops, family="hotspot")
    outputs["fault_events"] = len(schedule)
    return work, outputs


def _simulate(
    state: dict, traffic: Any, schedule: Any, seed: int, ops: Ops, *, family: str
) -> tuple[int, dict]:
    """Routes, engine, run and stats for one traffic matrix, then checks."""
    from repro.simulation.flow import FlowEngine, routes_block

    net = state["net"]
    tracer = ops.tracer
    routes = ops.call(
        "flow.routes_block", routes_block, net, traffic.sources, traffic.targets
    )
    engine = ops.call(
        "flow.engine_init", FlowEngine, net, traffic, routes, schedule=schedule
    )
    ops.call("flow.run", engine.run)
    result = engine.result()
    stats = ops.call("stats.from_arrays", result.stats)
    drops = result.drop_counts()
    flow_hops = int(result.hops.sum())

    tracer.count("workloads.flows", traffic.num_flows)
    tracer.count("flow.route_hops", int(routes.lengths.sum()))
    tracer.count("flow.route_max_hops", routes.max_hops)
    tracer.count("flow.ticks", engine.ticks_processed)
    tracer.count("flow.hops", flow_hops)
    tracer.count("flow.delivered", stats.delivered)
    for reason, dropped in drops.items():
        tracer.count(f"flow.dropped.{reason}", dropped)

    with tracer.span("checks"):
        _check_traffic(net, traffic, routes, result, stats, drops, seed, ops)
        for small in state["pins"]:
            ops.check(
                f"pin.{small.name}",
                lambda small=small: _event_pin(small, family, seed),
            )
    outputs = {
        "flows": traffic.num_flows,
        "delivered": stats.delivered,
        "dropped": drops,
        "mean_latency": stats.mean_latency,
        "max_latency": stats.max_latency,
        "flow_hops": flow_hops,
        "ticks": engine.ticks_processed,
    }
    return flow_hops, outputs


def _check_traffic(
    net: Any,
    traffic: Any,
    routes: Any,
    result: Any,
    stats: Any,
    drops: dict,
    seed: int,
    ops: Ops,
) -> None:
    flows = traffic.num_flows
    ops.check(
        "flow.accounting",
        lambda: stats.injected == flows
        and stats.delivered + sum(drops.values()) == flows,
    )

    def latency_covers_route() -> bool:
        done = result.delivered_at >= 0
        waited = result.delivered_at[done] - traffic.inject_at[done]
        return bool((waited >= routes.lengths[done]).all())

    ops.check("flow.latency_ge_route", latency_covers_route)

    sample = random.Random(seed).sample(range(flows), min(ROUTE_SAMPLE, flows))
    codec = routes.codec

    def sampled_routes_shortest() -> bool:
        for i in sample:
            u = codec.unrank(int(traffic.sources[i]))
            v = codec.unrank(int(traffic.targets[i]))
            path = routes.label_path(i)
            if path is None or path[0] != u or path[-1] != v:
                return False
            if len(path) - 1 != _reference_length(net, u, v):
                return False
            if not all(net.has_edge(a, b) for a, b in zip(path, path[1:])):
                return False
        return True

    ops.check("flow.route_sample", sampled_routes_shortest)


def _reference_length(net: Any, u: Any, v: Any) -> int:
    """Route length from an independent source: the Cayley distance oracle
    on HB, the e-cube + de Bruijn shift-in length on HD."""
    if hasattr(net, "oracle"):
        return net.oracle.distance(u, v)
    (h, d), (h2, d2) = u, v
    n = net.n
    overlap = n if d == d2 else max(
        k for k in range(n) if (d & ((1 << k) - 1)) == (d2 >> (n - k))
    )
    return (h ^ h2).bit_count() + n - overlap


def _event_pin(topology: Any, family: str, seed: int) -> bool:
    """Per-flow bit identity of the flow engine against the event simulator,
    both driven by the same :class:`RouteBlock` routes."""
    from repro.faults.dynamic import FaultSchedule
    from repro.simulation.flow import DROP_REASONS, FlowEngine, routes_block
    from repro.simulation.network import NetworkSimulator
    from repro.simulation.protocols import PrecomputedPathProtocol
    from repro.simulation.workloads import build_workload

    if family == "uniform":
        traffic = build_workload(
            topology, "uniform", count=PIN_FLOWS, seed=seed, per_tick=PIN_FLOWS // 10
        )
        schedule = None
    else:
        traffic = build_workload(topology, family, count=PIN_FLOWS, seed=seed)
        schedule = FaultSchedule.generate(topology, seed=seed, **PIN_FAULTS)
    routes = routes_block(topology, traffic.sources, traffic.targets)
    sim = NetworkSimulator(
        topology, PrecomputedPathProtocol(routes.path_fn(traffic)), schedule=schedule
    )
    for i, (s, t) in enumerate(traffic.pairs(routes.codec)):
        sim.inject(s, t, at=float(traffic.inject_at[i]))
    sim.run()
    engine = FlowEngine(topology, traffic, routes, schedule=schedule).run()
    result = engine.result()
    for i, packet in enumerate(sim.packets):
        tick = int(result.delivered_at[i])
        if (packet.delivered_at is None) != (tick < 0):
            return False
        if packet.delivered_at is not None and float(tick) != packet.delivered_at:
            return False
        if packet.hops != int(result.hops[i]):
            return False
        if (packet.drop_reason or "") != DROP_REASONS[result.drop_code[i]]:
            return False
    return sim.stats() == engine.stats()
