"""Telemetry wired into the datapath: PCIe byte accounting that matches
the analytic model, engine/queue instrumentation, and the trace CLI."""

import json

import pytest

from repro.pcie import MemoryRegion, PcieFabric, PcieLinkConfig
from repro.pcie.tlp import read_wire_bytes, write_wire_bytes
from repro.reporting import main
from repro.sim import Simulator, Store
from repro.telemetry import MetricsError, Telemetry


def build_fabric(telemetry):
    sim = Simulator(telemetry=telemetry)
    fabric = PcieFabric(sim)
    config = PcieLinkConfig()
    host = MemoryRegion("host", 1 << 20)
    device = MemoryRegion("device", 1 << 16)
    fabric.attach(host, config)
    fabric.attach(device, config)
    fabric.map_window(0x0000_0000, 1 << 20, host)
    fabric.map_window(0x1000_0000, 1 << 16, device)
    return sim, fabric, host, device, config


class TestPcieAccounting:
    def test_write_bytes_match_analytic_model(self):
        telemetry = Telemetry(trace=False)
        sim, fabric, host, device, config = build_fabric(telemetry)
        length = 1000

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, bytes(length))

        sim.spawn(proc(sim))
        sim.run()
        snap = telemetry.snapshot()
        up_hdr = snap["pcie.host.up.header_bytes"]
        up_pay = snap["pcie.host.up.payload_bytes"]
        expected_total = write_wire_bytes(length, config.max_payload_size)
        assert up_pay == length
        assert up_hdr == expected_total - length
        # The switch forwards the same TLPs down the target's lane.
        assert snap["pcie.device.down.header_bytes"] == up_hdr
        assert snap["pcie.device.down.payload_bytes"] == up_pay

    def test_read_bytes_match_analytic_model(self):
        telemetry = Telemetry(trace=False)
        sim, fabric, host, device, config = build_fabric(telemetry)
        length = 1024

        def proc(sim):
            yield fabric.read(device, 0x0, length)

        sim.spawn(proc(sim))
        sim.run()
        # The fabric issues a single request TLP, so align the model's
        # max_read_request with the read size; completion bytes are
        # RCB-split identically either way.
        request_bytes, completion_bytes = read_wire_bytes(
            length, config.read_completion_boundary,
            max_read_request=length)
        snap = telemetry.snapshot()
        requester_up = (snap["pcie.device.up.header_bytes"]
                        + snap["pcie.device.up.payload_bytes"])
        completer_up = (snap["pcie.host.up.header_bytes"]
                        + snap["pcie.host.up.payload_bytes"])
        assert requester_up == request_bytes
        assert completer_up == completion_bytes
        assert snap["pcie.device.up.payload_bytes"] == 0
        assert snap["pcie.host.up.payload_bytes"] == length

    def test_tlp_counts_per_lane(self):
        telemetry = Telemetry(trace=False)
        sim, fabric, host, device, config = build_fabric(telemetry)

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, bytes(600))

        sim.spawn(proc(sim))
        sim.run()
        # 600 B at MPS 256 -> 3 write TLPs.
        snap = telemetry.snapshot()
        assert snap["pcie.host.up.tlps"] == 3
        assert snap["pcie.device.down.tlps"] == 3

    def test_link_utilization_probe(self):
        telemetry = Telemetry(trace=False)
        sim, fabric, host, device, config = build_fabric(telemetry)

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, bytes(100))

        sim.spawn(proc(sim))
        sim.run()
        sampled = telemetry.metrics.sample_probes()
        assert sampled["pcie.host.up.bits"] > 0
        assert sampled["pcie.device.down.bits"] > 0

    def test_pcie_spans_traced(self):
        telemetry = Telemetry(trace=True)
        sim, fabric, host, device, config = build_fabric(telemetry)

        def proc(sim):
            yield fabric.post_write(host, 0x1000_0000, bytes(512))

        sim.spawn(proc(sim))
        sim.run()
        trace = telemetry.tracer.chrome_trace()["traceEvents"]
        processes = {e["args"]["name"] for e in trace
                     if e.get("ph") == "M" and e["name"] == "process_name"}
        assert "pcie" in processes
        assert any(e.get("ph") == "X" and e.get("name") == "Tlp"
                   for e in trace)


class TestEngineInstrumentation:
    def test_process_and_event_counters(self):
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)

        def proc(sim):
            yield sim.timeout(1.0)

        sim.spawn(proc(sim), name="worker")
        sim.run()
        snap = telemetry.snapshot()
        assert snap["sim.processes.spawned"] == 1
        assert snap["sim.processes.finished"] == 1
        assert snap["sim.events.processed"] >= 1

    def test_store_depth_gauge(self):
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        store = Store(sim, name="inbox")
        store.try_put("a")
        store.try_put("b")
        store.try_get()
        snap = telemetry.snapshot()
        assert snap["store.inbox.depth"] == 1
        assert snap["store.inbox.depth.peak"] == 2
        # A pulled level is a gauge: a pushed metric of its name is a
        # collision, as it is for a pulled counter.
        for create in (telemetry.metrics.gauge, telemetry.metrics.histogram,
                       telemetry.metrics.counter):
            with pytest.raises(MetricsError):
                create("store.inbox.depth")

    def test_spawn_instants_traced(self):
        telemetry = Telemetry(trace=True)
        sim = Simulator(telemetry=telemetry)

        def proc(sim):
            yield sim.timeout(0)

        sim.spawn(proc(sim), name="p0")
        sim.run()
        names = {e.get("name") for e in telemetry.tracer.events}
        assert "spawn:p0" in names
        assert "finish:p0" in names

    def test_disabled_telemetry_registers_nothing(self):
        sim = Simulator()  # NULL_TELEMETRY
        store = Store(sim, name="inbox")
        store.try_put("x")
        # The null registry is an ``enabled = False`` holder: nothing
        # was set on it.
        assert not sim.telemetry.metrics.enabled
        assert vars(sim.telemetry.metrics) == {}


class TestEchoRunCounters:
    def test_nic_and_fld_metrics_populated(self):
        from repro.experiments.echo import echo_throughput
        telemetry = Telemetry(trace=False)
        result = echo_throughput("flde-remote", 256, count=20,
                                 telemetry=telemetry)
        assert result["received"] == 20
        metrics = telemetry.metrics
        snap = metrics.snapshot()
        assert snap["nic.client.nic.tx.wqes"] >= 20
        assert snap["nic.server.nic.rx.packets"] >= 20
        assert snap["nic.client.nic.cqes"] > 0
        # FLD counted every echoed packet it transmitted.
        fld_tx = [name for name in snap.values
                  if name.startswith("fld.") and name.endswith("tx.packets")]
        assert fld_tx and all(snap[name] >= 20 for name in fld_tx)
        # Per-lane PCIe byte split is visible (Fig. 7a accounting).
        assert snap["pcie.server.nic.up.header_bytes"] > 0
        # Translation-table probes come back through the registry.
        sampled = metrics.sample_probes()
        assert any(".xlt." in name and name.endswith(".lookups")
                   for name in sampled)


class TestPulledCounts:
    """Components count in plain ints; the registry pulls them."""

    def test_pulled_name_colliding_with_a_pushed_metric_raises(self):
        # A pulled count is a counter: a gauge or histogram under its
        # name is a type collision, raised at creation whichever side
        # came first.
        telemetry = Telemetry(trace=False)
        Simulator(telemetry=telemetry)
        for create in (telemetry.metrics.gauge, telemetry.metrics.histogram):
            with pytest.raises(MetricsError):
                create("sim.events.processed")
        telemetry = Telemetry(trace=False)
        telemetry.metrics.gauge("sim.events.processed")
        with pytest.raises(MetricsError):
            Simulator(telemetry=telemetry)

    def test_a_shard_merged_into_a_live_registry_adds_to_its_counts(self):
        # ``merge_from`` pushes counters; under a pulled name they add
        # up, like two sources sharing one (the sweep's direct-run
        # reference merges into a registry whose simulator is alive).
        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        sim.spawn(event for event in [sim.timeout(1e-6)])
        sim.run()
        own = telemetry.snapshot()["sim.processes.spawned"]
        assert own == sim.stats_spawned == 1
        telemetry.metrics.merge_from(
            {"counters": {"sim.processes.spawned": 4, "other": 2}})
        assert telemetry.snapshot()["sim.processes.spawned"] == own + 4
        counters = telemetry.metrics.to_dict()["counters"]
        assert counters["sim.processes.spawned"] == own + 4
        assert counters["other"] == 2
        assert telemetry.metrics.names().count("sim.processes.spawned") == 1

    def test_a_late_key_colliding_with_a_pushed_metric_raises_at_export(self):
        # A source may grow keys (the shaper's meters); one that lands
        # on a pushed name cannot be refused earlier than the export.
        telemetry = Telemetry(trace=False)
        counts = {}
        telemetry.register_counters("shaper", lambda: counts)
        telemetry.metrics.gauge("shaper.slow.passed")
        counts["slow.passed"] = 1
        with pytest.raises(MetricsError):
            telemetry.metrics.to_dict()
        with pytest.raises(MetricsError):
            telemetry.snapshot()

    def test_exported_counters_are_the_owners_stats(self):
        """The whole ``counters`` section of a metered FLD-E echo run:
        the names the pushed counters carried (115 of them), each equal
        to the ``stats_*`` int its owner keeps."""
        from repro.experiments.echo import open_loop
        from repro.experiments.setups import flde_echo_remote

        telemetry = Telemetry(trace=False)
        sim = Simulator(telemetry=telemetry)
        setup = flde_echo_remote(sim)
        setup.server.nic.shaper.add_limiter("slow", 2e9,
                                            burst_bits=8 * 1500)
        setup.accel.tx_queue = setup.runtime.create_eth_tx_queue(
            vport=2, meter="slow")
        row = open_loop(sim, setup.loadgen, 30, 256, pace_bps=3e9)
        assert row["received"] == 30

        expected = {
            "sim.events.processed": sim.stats_events,
            "sim.processes.spawned": sim.stats_spawned,
            "sim.processes.finished": sim.stats_finished,
            "accel.echo.packets": setup.accel.stats_processed,
            "accel.echo.bytes": setup.accel.stats_bytes,
        }
        fld = setup.runtime.fld
        expected.update({
            "fld.server.fld.tx.packets": fld.stats_tx_packets,
            "fld.server.fld.tx.bytes": fld.stats_tx_bytes,
            "fld.server.fld.cqe_writes": fld.stats_cqe_writes,
            "fld.server.fld.rx.stream_pushes": fld.stats_rx_stream_pushes,
        })
        shaper = setup.server.nic.shaper
        expected["shaper.slow.passed"] = shaper.stats_passed["slow"]
        expected["shaper.slow.dropped"] = shaper.stats_dropped["slow"]
        endpoints = {"client": ("cpu", "mem", "nic"),
                     "server": ("cpu", "fld", "mem", "nic")}
        # The one derived value (lane bytes minus payload), pinned to
        # what the parent's per-TLP pushed counters read on this run.
        header_bytes = {
            "client.cpu": (720, 0), "client.mem": (640, 2232),
            "client.nic": (2232, 1360), "server.cpu": (0, 0),
            "server.fld": (1320, 2880), "server.mem": (20, 24),
            "server.nic": (2904, 1340),
        }
        for node_name, node in (("client", setup.client),
                                ("server", setup.server)):
            nic = node.nic
            prefix = f"nic.{node_name}.nic"
            expected.update({
                f"{prefix}.tx.wqes": nic.stats_tx_wqes,
                f"{prefix}.tx.bytes": nic.stats_tx_bytes,
                f"{prefix}.rx.packets": nic.stats_rx_packets,
                f"{prefix}.rx.bytes": nic.stats_rx_bytes,
                f"{prefix}.cqes": nic.stats_cqes,
                f"{prefix}.rx.dropped_inbox": nic.stats_rx_dropped_inbox,
                f"{prefix}.rx.dropped_no_desc": nic.stats_rx_dropped_no_desc,
                f"{prefix}.meter_drops": nic.stats_meter_drops,
                f"{prefix}.dropped_doorbells": nic.stats_dropped_doorbells,
            })
            rdma = nic.rdma
            prefix = f"{node_name}.nic.rdma"
            expected.update({
                f"{prefix}.segments_sent": rdma.stats_segments_sent,
                f"{prefix}.segments_received": rdma.stats_segments_received,
                f"{prefix}.retransmits": rdma.stats_retransmits,
                f"{prefix}.duplicate_segments": rdma.stats_duplicate_segments,
                f"{prefix}.acks_sent": rdma.stats_acks_sent,
                f"{prefix}.acks_received": rdma.stats_acks_received,
                f"{prefix}.injected_drops": rdma.stats_injected_drops,
            })
            wire = nic.port.link
            expected[f"link.{node_name}.nic.port.wire.bits"] = wire.stats_bits
            expected[f"link.{node_name}.nic.port.wire.messages"] = (
                wire.stats_messages)
            expected[f"link.{node_name}.nic.port.wire.repairs"] = (
                wire.stats_repairs)
            expected[f"link.{node_name}.nic.port.wire.replayed"] = (
                wire.stats_replayed)
            for endpoint in endpoints[node_name]:
                name = f"{node_name}.{endpoint}"
                port = nic.fabric._ports[name]
                up_header, down_header = header_bytes[name]
                for lane, link, payload, header in (
                        ("up", port.up, port.up.payload_bytes, up_header),
                        ("down", port.down, port.down.payload_bytes,
                         down_header)):
                    expected.update({
                        f"link.{name}.{lane}.bits": link.stats_bits,
                        f"link.{name}.{lane}.messages": link.stats_messages,
                        f"link.{name}.{lane}.repairs": link.stats_repairs,
                        f"link.{name}.{lane}.replayed": link.stats_replayed,
                        f"pcie.{name}.{lane}.tlps": link.stats_messages,
                        f"pcie.{name}.{lane}.payload_bytes": payload,
                        f"pcie.{name}.{lane}.header_bytes": header,
                    })
        assert len(expected) == 149
        assert telemetry.metrics.to_dict()["counters"] == expected
        # Something moved on every layer the run touches.
        for name in ("nic.server.nic.rx.bytes", "fld.server.fld.tx.bytes",
                     "accel.echo.bytes", "shaper.slow.passed",
                     "pcie.server.fld.up.payload_bytes",
                     "link.client.nic.port.wire.bits"):
            assert expected[name] > 0, name


class TestTraceCli:
    def test_trace_fig7b_emits_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "fig7b", "-o", str(out), "--count", "30"])
        assert rc == 0
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        processes = {e["args"]["name"] for e in events
                     if e.get("ph") == "M" and e["name"] == "process_name"}
        assert "pcie" in processes
        assert any(p.startswith("nic.") for p in processes)
        # PCIe link spans and NIC queue events are both present.
        assert any(e.get("ph") == "X" and e.get("name") == "Tlp"
                   for e in events)
        threads = {e["args"]["name"] for e in events
                   if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert any(t.startswith("sq") or t.startswith("rq")
                   for t in threads)
        assert "traced fig7b" in capsys.readouterr().out

    def test_trace_with_metrics_dump(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        metrics_out = tmp_path / "m.json"
        rc = main(["trace", "fig7b", "-o", str(out), "--count", "10",
                   "--metrics", str(metrics_out)])
        assert rc == 0
        exported = json.loads(metrics_out.read_text())
        assert exported["counters"]
        assert any(name.startswith("pcie.") for name in exported["counters"])

    @pytest.mark.parametrize("command", ["latency", "profile", "trace"])
    def test_count_on_timed_scenario_is_refused(self, command, tmp_path,
                                                capsys):
        argv = [command, "iot-isolation", "--count", "60",
                "-o", str(tmp_path / "out.json")]
        assert main(argv) == 2
        assert "runs timed traffic" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,message", [
        ("latency echo --count 0", "echo needs a count of at least 1; got 0"),
        ("profile echo --count -3",
         "echo needs a count of at least 1; got -3"),
        ("latency echo --size 100000",
         "echo carries sizes of 64 to 2048 B; got 100000"),
        ("latency echo --size 9000",
         "echo carries sizes of 64 to 2048 B; got 9000"),
        ("latency echo --size 0", "echo carries sizes of 64 to 2048 B; got 0"),
        ("trace fldr --size 16385 -o unused.json",
         "fldr carries sizes of 0 to 16384 B; got 16385"),
        ("profile echo --count 40 --top -3", "--top must be at least 1; got -3"),
        ("latency echo --count 5 --sample-rate 0",
         "--sample-rate must be at least 1; got 0"),
    ])
    def test_out_of_range_count_or_size_is_refused(self, argv, message,
                                                   capsys):
        assert main(argv.split()) == 2
        assert capsys.readouterr().out == message + "\n"

    def test_latency_with_no_packet_traced_is_refused(self, capsys):
        assert main(["latency", "cpu-mediated", "--count", "5"]) == 2
        out = capsys.readouterr().out
        assert "reconciliation: no packet traced" in out and "OK" not in out
        assert out.endswith("no cpu-mediated packet finished a trace: "
                            "nothing to attribute\n")

    def test_trace_unknown_experiment(self, tmp_path, capsys):
        rc = main(["trace", "nope", "-o", str(tmp_path / "x.json")])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().out


class TestCliCompat:
    def test_legacy_section_invocation(self, capsys):
        assert main(["table4"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_legacy_unknown_section(self, capsys):
        assert main(["bogus"]) == 2

    def test_legacy_default_prints_analytical(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "--full" in out

    def test_tables_subcommand(self, capsys):
        assert main(["tables", "table4"]) == 0
        assert "Table 4" in capsys.readouterr().out

    def test_figures_subcommand(self, capsys):
        assert main(["figures", "fig7a"]) == 0
        assert "Fig. 7a" in capsys.readouterr().out

    def test_subcommand_rejects_wrong_group(self, capsys):
        assert main(["tables", "fig7a"]) == 2

    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig7b" in out and "traceable" in out
