"""Verdict combination: the fastest-of detector.

Layered detection only pays off if the layers cover for each other:
BFD is fast but a queueing spike can starve heartbeats; transport
evidence is slow but grounded in real traffic.
:class:`FastestOfDetector` holds several member detectors, forwards
all passive evidence to each, and reads a path DOWN as soon as *any*
member does, so its detection latency is the minimum over members.
Any adverse member vote short of DOWN reads SUSPECT.

Members push: every member verdict flip triggers a recomputation of
the combined verdict for that pair (via the flip-listener hook on
:class:`~repro.detect.base.Detector`), so the combiner keeps its own
``detection_times`` — stamped when the *combination* crossed into
DOWN, which is the number the detection-latency metric should see.

False positives are counted at the combination too: one for each
combined DOWN that ends because a member refuted its own DOWN, that
is, the member flip that lifted the combined verdict is the one that
raised the member's ``false_positive_count`` (``refuted``: the
transport table's proof-of-life ACK; a BFD session's return UP after a
late echo proved it alive).  A refutation while another member still
holds the path DOWN ends no combined DOWN and counts nothing.  Members
keep their own counts, nested under ``members`` in the metrics.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.detect.base import DOWN, SUSPECT, UP, VERDICT_NAMES, Detector


class FastestOfDetector(Detector):
    """DOWN as soon as any member is."""

    name = "fastest"

    def __init__(self, fabric, leaf: int, members: Sequence) -> None:
        members = tuple(members)
        if len(members) < 2:
            raise ValueError("combiners need at least two member detectors")
        self.members = members
        self._audit = None
        super().__init__(fabric, leaf)
        self._combined: Dict[Tuple[int, int], int] = {}
        for member in members:
            member.add_flip_listener(self._member_flip)

    @property
    def active(self) -> bool:  # type: ignore[override]
        return any(member.active for member in self.members)

    # The audit hook fans out: member flips are audited with the member
    # as the source, combined flips with the combiner itself.
    @property
    def audit(self):
        return self._audit

    @audit.setter
    def audit(self, value) -> None:
        self._audit = value
        for member in self.members:
            member.audit = value

    # ------------------------------------------------------------------ #
    # Verdicts
    # ------------------------------------------------------------------ #

    def path_verdict(self, dst_leaf: int, path: int) -> int:
        adverse = False
        for member in self.members:
            verdict = member.path_verdict(dst_leaf, path)
            if verdict == DOWN:
                return DOWN
            if verdict == SUSPECT:
                adverse = True
        return SUSPECT if adverse else UP

    def _member_flip(self, member, dst_leaf: int, path: int,
                     old: int, new: int, refuted: bool) -> None:
        key = (dst_leaf, path)
        combined = self.path_verdict(dst_leaf, path)
        previous = self._combined.get(key, UP)
        if combined == previous:
            return
        self._combined[key] = combined
        if previous == DOWN and refuted:
            self.false_positive_count += 1
        self._flip(
            dst_leaf,
            path,
            previous,
            combined,
            f"member-{member.name}-{VERDICT_NAMES[new]}",
            f"fastest-of-{len(self.members)}",
        )

    # ------------------------------------------------------------------ #
    # Evidence feeds fan out to every member
    # ------------------------------------------------------------------ #

    def note_timeout(self, dst_leaf: int, path: int) -> bool:
        tripped = False
        for member in self.members:
            tripped = member.note_timeout(dst_leaf, path) or tripped
        return tripped

    def note_retransmit(self, dst_leaf: int, path: int) -> bool:
        tripped = False
        for member in self.members:
            tripped = member.note_retransmit(dst_leaf, path) or tripped
        return tripped

    def note_ok(self, dst_leaf: int, path: int) -> None:
        for member in self.members:
            member.note_ok(dst_leaf, path)

    def mark_failed(self, dst_leaf: int, path: int) -> bool:
        tripped = False
        for member in self.members:
            tripped = member.mark_failed(dst_leaf, path) or tripped
        return tripped

    # ------------------------------------------------------------------ #
    # Lifecycle / reporting
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        for member in self.members:
            member.start()

    def metrics(self) -> dict:
        out = super().metrics()
        out["members"] = [member.metrics() for member in self.members]
        return out
