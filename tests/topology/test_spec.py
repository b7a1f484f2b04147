"""Unit tests for TopologySpec validation and serialization."""

import pytest

from repro.experiments.scale_tenants import scale_tenants_spec
from repro.experiments.setups import flde_echo_remote_spec
from repro.topology import (
    AccelFnSpec,
    FldSpec,
    HostQpSpec,
    LinkSpec,
    NodeSpec,
    SpecError,
    TopologySpec,
    VportSpec,
)


def minimal_spec(**overrides):
    fields = dict(
        name="t",
        nodes=[NodeSpec(name="client"), NodeSpec(name="server")],
        links=[LinkSpec(a="client", b="server")],
        vports=[VportSpec(node="server", vport=2,
                          mac="02:00:00:00:00:99")],
        flds=[FldSpec(node="server")],
        accel_fns=[AccelFnSpec(name="echo", fld="server.fld",
                               kind="echo", vport=2)],
        host_qps=[HostQpSpec(name="client", node="client", vport=1)],
    )
    fields.update(overrides)
    return TopologySpec(**fields)


class TestValidate:
    def test_experiment_specs_validate(self):
        flde_echo_remote_spec().validate()
        scale_tenants_spec(4).validate()

    def test_duplicate_node_names(self):
        spec = minimal_spec(nodes=[NodeSpec(name="n"), NodeSpec(name="n")],
                            links=[], vports=[], flds=[], accel_fns=[],
                            host_qps=[])
        with pytest.raises(SpecError, match="duplicate node names"):
            spec.validate()

    def test_unknown_core_role(self):
        spec = minimal_spec(nodes=[NodeSpec(name="client", core="turbo"),
                                   NodeSpec(name="server")])
        with pytest.raises(SpecError, match="core"):
            spec.validate()

    def test_link_to_unknown_node(self):
        spec = minimal_spec(links=[LinkSpec(a="client", b="ghost")])
        with pytest.raises(SpecError, match="unknown node"):
            spec.validate()

    def test_port_cabled_twice(self):
        spec = minimal_spec(
            nodes=[NodeSpec(name="client"), NodeSpec(name="server"),
                   NodeSpec(name="third")],
            links=[LinkSpec(a="client", b="server"),
                   LinkSpec(a="client", b="third")])
        with pytest.raises(SpecError, match="already cabled"):
            spec.validate()

    def test_self_link(self):
        spec = minimal_spec(links=[LinkSpec(a="client", b="client")])
        with pytest.raises(SpecError, match="itself"):
            spec.validate()

    def test_duplicate_vport_entry(self):
        vp = VportSpec(node="server", vport=2, mac="02:00:00:00:00:99")
        spec = minimal_spec(vports=[vp, vp])
        with pytest.raises(SpecError, match="duplicate vport"):
            spec.validate()

    def test_two_flds_one_bar_slot(self):
        spec = minimal_spec(flds=[FldSpec(node="server"),
                                  FldSpec(node="server", name="other")])
        with pytest.raises(SpecError, match="BAR index"):
            spec.validate()

    def test_duplicate_fld_names(self):
        spec = minimal_spec(flds=[FldSpec(node="server", index=0,
                                          name="fld"),
                                  FldSpec(node="server", index=1,
                                          name="fld")])
        with pytest.raises(SpecError, match="duplicate FLD names"):
            spec.validate()

    def test_accel_fn_unknown_fld(self):
        spec = minimal_spec(accel_fns=[AccelFnSpec(
            name="echo", fld="ghost.fld", kind="echo", vport=2)])
        with pytest.raises(SpecError, match="unknown FLD"):
            spec.validate()

    def test_duplicate_accel_fn_names(self):
        fn = AccelFnSpec(name="echo", fld="server.fld", kind="echo",
                         vport=2)
        spec = minimal_spec(accel_fns=[fn, fn])
        with pytest.raises(SpecError, match="duplicate accel fn"):
            spec.validate()

    def test_two_default_rx_queues_on_one_vport(self):
        spec = minimal_spec(accel_fns=[
            AccelFnSpec(name="a", fld="server.fld", kind="echo", vport=2),
            AccelFnSpec(name="b", fld="server.fld", kind="echo", vport=2),
        ])
        with pytest.raises(SpecError, match="default"):
            spec.validate()

    def test_host_qp_unknown_node(self):
        spec = minimal_spec(host_qps=[HostQpSpec(name="q", node="ghost",
                                                 vport=1)])
        with pytest.raises(SpecError, match="unknown node"):
            spec.validate()

    def test_duplicate_host_qp_names(self):
        qp = HostQpSpec(name="q", node="client", vport=1)
        spec = minimal_spec(host_qps=[qp, qp])
        with pytest.raises(SpecError, match="duplicate host qp"):
            spec.validate()


class TestFldNames:
    def test_fld_resolved_name(self):
        assert FldSpec(node="n").resolved_name() == "n.fld"
        assert FldSpec(node="n", index=2).resolved_name() == "n.fld2"
        assert FldSpec(node="n", index=2,
                       name="x").resolved_name() == "x"
