"""Tests for the simulated cluster substrate."""

import pytest

from repro.cluster import Cluster, ClusterConfig, CostModel
from repro.cluster.machine import ClockBuckets, MachineState
from repro.cluster.network import NetworkModel
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.graph.generators import erdos_renyi


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
def test_cost_model_derive():
    base = CostModel()
    tuned = base.derive(network_bandwidth=1.0)
    assert tuned.network_bandwidth == 1.0
    assert tuned.intersect_per_element == base.intersect_per_element
    assert base.network_bandwidth != 1.0  # original untouched


def test_cost_model_frozen():
    with pytest.raises(Exception):
        CostModel().network_bandwidth = 5.0  # type: ignore[misc]


# ----------------------------------------------------------------------
# clock buckets
# ----------------------------------------------------------------------
def test_clock_bucket_totals_and_fractions():
    clock = ClockBuckets(compute=3.0, scheduler=1.0, cache=0.5, network=0.5)
    assert clock.total() == 5.0
    fractions = clock.fractions()
    assert fractions["compute"] == pytest.approx(0.6)
    assert sum(fractions.values()) == pytest.approx(1.0)


def test_clock_bucket_empty_fractions():
    assert all(v == 0.0 for v in ClockBuckets().fractions().values())


def test_clock_bucket_add():
    a = ClockBuckets(compute=1.0)
    a.add(ClockBuckets(compute=2.0, network=1.0))
    assert a.compute == 3.0
    assert a.network == 1.0


# ----------------------------------------------------------------------
# machine state
# ----------------------------------------------------------------------
def test_machine_thread_split():
    machine = MachineState(0, cores=16, memory_bytes=1 << 20)
    assert machine.comm_threads == 4
    assert machine.compute_threads == 12


def test_machine_thread_split_minimums():
    machine = MachineState(0, cores=2, memory_bytes=1 << 20)
    assert machine.comm_threads >= 1
    assert machine.compute_threads >= 1


def test_parallel_compute_time():
    machine = MachineState(0, cores=16, memory_bytes=1 << 20)
    serial = 10.8
    parallel = machine.parallel_compute_time(serial)
    assert parallel == pytest.approx(serial / (12 * 0.9))
    single = MachineState(0, cores=1, memory_bytes=1 << 20)
    assert single.parallel_compute_time(serial) == serial


def test_machine_memory_accounting():
    machine = MachineState(0, cores=4, memory_bytes=1000)
    machine.allocate(600)
    machine.allocate(300)
    assert machine.resident_bytes == 900
    assert machine.peak_bytes == 900
    machine.release(500)
    assert machine.resident_bytes == 400
    machine.release(10_000)
    assert machine.resident_bytes == 0
    assert machine.peak_bytes == 900  # peak is sticky


def test_machine_oom():
    machine = MachineState(3, cores=4, memory_bytes=100)
    with pytest.raises(OutOfMemoryError) as exc:
        machine.allocate(200)
    assert exc.value.machine_id == 3
    assert exc.value.capacity_bytes == 100


# ----------------------------------------------------------------------
# network model
# ----------------------------------------------------------------------
def _servers(count):
    return [MachineState(m, cores=8, memory_bytes=1 << 20)
            for m in range(count)]


def test_network_traffic_matrix():
    cost = CostModel()
    net = NetworkModel(3, cost)
    net.record_fetch_batches(0, [(1, 1, 100)], _servers(3))
    wire = 100 + cost.request_header_bytes
    assert net.traffic_bytes[0, 1] == cost.request_header_bytes
    assert net.traffic_bytes[1, 0] == 100
    assert net.total_requests() == 1
    assert net.total_bytes() == wire


def test_network_serve_accounting():
    cost = CostModel()
    net = NetworkModel(2, cost)
    servers = _servers(2)
    net.record_fetch_batches(0, [(1, 1, 500)], servers)
    server = servers[1]
    assert server.served_bytes == 500
    assert server.served_requests == 1


def test_batch_time_zero_requests():
    net = NetworkModel(2, CostModel())
    assert net.batch_time(0, 0) == 0.0


def test_batch_time_latency_plus_wire():
    cost = CostModel()
    net = NetworkModel(2, cost)
    t = net.batch_time(7_000_000, 10)
    wire = (7_000_000 + 10 * cost.request_header_bytes) / cost.network_bandwidth
    assert t == pytest.approx(cost.batch_latency + wire)


def test_utilization_bounds():
    cost = CostModel()
    net = NetworkModel(2, cost)
    net.record_fetch_batches(0, [(1, 1, 10_000)], _servers(2))
    util = net.utilization(1.0)
    assert 0.0 < util < 1.0
    assert net.utilization(0.0) == 0.0


# ----------------------------------------------------------------------
# cluster assembly
# ----------------------------------------------------------------------
def test_cluster_charges_partition_memory():
    graph = erdos_renyi(100, 300, seed=0)
    cluster = Cluster(graph, ClusterConfig(num_machines=4))
    for machine in cluster.machines:
        assert machine.resident_bytes > 0


def test_cluster_partition_too_big():
    graph = erdos_renyi(100, 300, seed=0)
    with pytest.raises(OutOfMemoryError):
        Cluster(graph, ClusterConfig(num_machines=2, memory_bytes=64))


def test_cluster_runtime_is_max_clock():
    graph = erdos_renyi(50, 100, seed=0)
    cluster = Cluster(graph, ClusterConfig(num_machines=2))
    cluster.machines[0].clock.compute = 1.0
    cluster.machines[1].clock.compute = 3.0
    assert cluster.runtime() == 3.0


def test_cluster_reset_clocks():
    graph = erdos_renyi(50, 100, seed=0)
    cluster = Cluster(graph, ClusterConfig(num_machines=2))
    cluster.machines[0].clock.compute = 1.0
    cluster.network.record_fetch_batches(0, [(1, 1, 10)], cluster.machines)
    cluster.reset_clocks()
    assert cluster.runtime() == 0.0
    assert cluster.network.total_bytes() == 0


def test_cluster_config_validation():
    with pytest.raises(ConfigurationError):
        ClusterConfig(num_machines=0)
    with pytest.raises(ConfigurationError):
        ClusterConfig(cores_per_machine=1)
    with pytest.raises(ConfigurationError):
        ClusterConfig(sockets_per_machine=0)


def test_cluster_owner_consistent_with_partitioner():
    graph = erdos_renyi(60, 120, seed=0)
    cluster = Cluster(graph, ClusterConfig(num_machines=4))
    for v in range(60):
        assert cluster.owner(v) == cluster.partitioner.owner(v)
