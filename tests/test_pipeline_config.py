"""Tests for the Table 2 machine configuration and execution resources."""

import pytest

from repro.core.config import WatchdogConfig
from repro.isa.microops import UopKind
from repro.pipeline.config import FunctionalUnitConfig, MachineConfig
from repro.pipeline.resources import FunctionalUnits, PortPool
from repro.errors import ConfigurationError


class TestMachineConfig:
    def test_table2_defaults(self):
        machine = MachineConfig()
        assert machine.clock_ghz == pytest.approx(3.2)
        assert machine.issue_width == 6
        assert machine.rob_entries == 168
        assert machine.iq_entries == 54
        assert machine.lq_entries == 64
        assert machine.sq_entries == 36
        assert machine.hierarchy.l1d.size_bytes == 32 * 1024
        assert machine.hierarchy.l2.size_bytes == 256 * 1024
        assert machine.hierarchy.l3.size_bytes == 16 * 1024 * 1024
        assert machine.hierarchy.lock_cache.size_bytes == 4 * 1024

    def test_functional_unit_counts(self):
        units = FunctionalUnitConfig()
        assert units.int_alu == 6
        assert units.load_ports == 2
        assert units.store_ports == 1

    def test_latency_table(self):
        machine = MachineConfig()
        assert machine.latency_for(UopKind.ALU) == 1
        assert machine.latency_for(UopKind.DIV) > machine.latency_for(UopKind.MUL)

    def test_describe_mentions_key_structures(self):
        text = MachineConfig().describe()
        assert "168-entry ROB" in text
        assert "Lock Location" in text

    @pytest.mark.parametrize("field", [
        "issue_width", "dispatch_width", "commit_width", "rob_entries",
        "iq_entries", "lq_entries", "sq_entries"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            MachineConfig(**{field: value})

    def test_single_entry_windows_run_on_both_pipelines(self):
        from repro.sim.simulator import Simulator
        from repro.workloads.bundle import TraceBundle

        machine = MachineConfig(dispatch_width=1, commit_width=1,
                                rob_entries=1, iq_entries=1, lq_entries=1,
                                sq_entries=1)
        bundle = TraceBundle.generate("gzip", seed=3, instructions=300)
        config = WatchdogConfig.isa_assisted_uaf()
        compiled = Simulator(machine=machine,
                             pipeline="compiled").run_bundle(bundle, config)
        reference = Simulator(machine=machine,
                              pipeline="reference").run_bundle(bundle, config)
        assert compiled.timing == reference.timing
        assert compiled.timing.cycles >= compiled.timing.total_uops


class TestPortPool:
    def test_single_port_serialises(self):
        pool = PortPool("p", 1)
        assert pool.reserve(0) == 0
        assert pool.reserve(0) == 1
        assert pool.reserve(0) == 2

    def test_two_ports_allow_two_per_cycle(self):
        pool = PortPool("p", 2)
        assert pool.reserve(0) == 0
        assert pool.reserve(0) == 0
        assert pool.reserve(0) == 1

    def test_reserve_respects_earliest(self):
        pool = PortPool("p", 1)
        assert pool.reserve(10) == 10

    def test_average_wait(self):
        pool = PortPool("p", 1)
        pool.reserve(0)
        pool.reserve(0)
        assert pool.average_wait() == pytest.approx(0.5)

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            PortPool("p", 0)


class TestFunctionalUnits:
    def test_check_uses_lock_port_when_cache_enabled(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig.isa_assisted_uaf())
        assert units.pool_for(UopKind.CHECK) is units.lock

    def test_check_uses_load_ports_without_lock_cache(self):
        """The Figure 9 contention effect: checks steal data-cache bandwidth."""
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig.no_lock_cache())
        assert units.pool_for(UopKind.CHECK) is units.load

    def test_shadow_accesses_use_data_ports(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig.isa_assisted_uaf())
        assert units.pool_for(UopKind.SHADOW_LOAD) is units.load
        assert units.pool_for(UopKind.SHADOW_STORE) is units.store

    def test_standard_mappings(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig())
        assert units.pool_for(UopKind.LOAD) is units.load
        assert units.pool_for(UopKind.MUL) is units.muldiv
        assert units.pool_for(UopKind.FP) is units.fp
        assert units.pool_for(UopKind.BRANCH) is units.branch
        assert units.pool_for(UopKind.META_SELECT) is units.alu

    def test_all_pools_exposed(self):
        units = FunctionalUnits(FunctionalUnitConfig(), WatchdogConfig())
        assert set(units.all_pools()) == {"alu", "branch", "load", "store",
                                          "muldiv", "fp", "lock"}
