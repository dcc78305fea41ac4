"""Simulated counters summed over every machine a run builds.

A sharded service owns a coordinator machine plus one private machine
per shard, so every count the benchmark reports is a sum (or, for
memory, a maximum) over all of them.  Machines are collected with
:func:`repro.em.observe_machines` while an episode runs.
"""

from __future__ import annotations


class MachineSet:
    """The machines built inside one :meth:`observe` window."""

    def __init__(self) -> None:
        self.machines: list = []

    def add(self, machine) -> None:
        self.machines.append(machine)

    def observe(self):
        from repro.em import observe_machines

        return observe_machines(self.add)

    def counters(self) -> tuple[int, int, int]:
        """Lifetime (reads, writes, comparisons) summed over machines."""
        reads = writes = comparisons = 0
        for machine in self.machines:
            life = machine.disk.lifetime
            reads += life.reads
            writes += life.writes
            comparisons += machine.lifetime_comparisons
        return reads, writes, comparisons

    def io_total(self) -> int:
        total = 0
        for machine in self.machines:
            life = machine.disk.lifetime
            total += life.reads + life.writes
        return total

    def peak_disk_blocks(self) -> int:
        """Sum over machines of each disk's live-block high-water mark."""
        return sum(machine.disk.peak_blocks for machine in self.machines)

    def peak_memory_records(self) -> int:
        """Highest leased-memory mark of any one machine."""
        return max((machine.memory.peak for machine in self.machines), default=0)

    def io_of(self, label_prefix: str) -> list[int]:
        """Lifetime I/O of each machine whose label starts with the prefix."""
        return [
            machine.disk.lifetime.reads + machine.disk.lifetime.writes
            for machine in self.machines
            if machine.label.startswith(label_prefix)
        ]
