"""Switch failure injection.

Reproduces the two Microsoft-reported switch malfunctions the paper
evaluates (§2.1, §5.3.3):

* **silent random packet drops** — the switch drops packets silently at a
  high rate (e.g. 2%), regardless of flow;
* **packet blackholes** — packets matching certain (source, destination)
  patterns are dropped deterministically (100%).

Both attach as drop predicates on the *downlink ports of one spine
switch*: every packet crossing a spine uses exactly one of its downlinks,
so this drops traffic exactly as a malfunctioning spine would — invisibly,
with no link-down signal any routing layer could observe.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Iterable, List, Set, Tuple, TYPE_CHECKING

from repro.net.packet import Packet
from repro.net.topology import LeafSpineTopology

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.port import OutputPort


class _RevocableFailure:
    """Base for drop-predicate failures: installable and *uninstallable*.

    The fault plane (:mod:`repro.faults`, the only installer on the run
    path) reverts failures mid-run, so every handle remembers which ports
    it attached to and can remove itself again.
    """

    def __init__(self) -> None:
        self.dropped = 0
        self._ports: List["OutputPort"] = []

    def install(self, topology: LeafSpineTopology, spine: int) -> None:
        """Attach to every downlink of ``spine``."""
        for port in topology.spine_ports(spine):
            port.add_drop_predicate(self)
            self._ports.append(port)

    def uninstall(self) -> None:
        """Detach from every port this handle was installed on (idempotent)."""
        for port in self._ports:
            try:
                port.remove_drop_predicate(self)
            except ValueError:
                pass
        self._ports.clear()


class RandomDropFailure(_RevocableFailure):
    """Silent random packet drops at a switch.

    Args:
        drop_rate: per-packet drop probability (e.g. ``0.02``).
        rng: dedicated random stream (failure draws never perturb other
            stochastic components).
    """

    def __init__(self, drop_rate: float, rng: random.Random) -> None:
        super().__init__()
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError(f"drop rate must be in [0, 1], got {drop_rate}")
        self.drop_rate = drop_rate
        self.rng = rng

    def __call__(self, packet: Packet, now: int) -> bool:
        if self.rng.random() < self.drop_rate:
            self.dropped += 1
            return True
        return False


class BlackholeFailure(_RevocableFailure):
    """Deterministic drops for a set of (src, dst) host pairs.

    Models TCAM-deficit blackholes: packets whose (source, destination)
    matches the pattern are dropped 100% of the time; everything else
    passes untouched.
    """

    def __init__(self, pairs: Iterable[Tuple[int, int]]) -> None:
        super().__init__()
        self.pairs: FrozenSet[Tuple[int, int]] = frozenset(pairs)

    def __call__(self, packet: Packet, now: int) -> bool:
        if (packet.src, packet.dst) in self.pairs:
            self.dropped += 1
            return True
        return False


def blackhole_pairs_between_racks(
    topology: LeafSpineTopology,
    src_leaf: int,
    dst_leaf: int,
    fraction: float,
    rng: random.Random,
) -> Set[Tuple[int, int]]:
    """Pick ``fraction`` of (src, dst) host pairs from one rack to another.

    The paper's Fig. 17 blackholes *half* of the source–destination IP
    pairs from rack 1 to rack 8 on one randomly selected spine.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    pairs = [
        (s, d)
        for s in topology.hosts_of_leaf(src_leaf)
        for d in topology.hosts_of_leaf(dst_leaf)
    ]
    count = int(round(fraction * len(pairs)))
    return set(rng.sample(pairs, count))
