"""Structured verdicts emitted by the verifier."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # sweep imports automorphisms, which imports this module
    from .sweep import SweepResult


@dataclass
class VerificationReport:
    """Verdict for one (group, m) instance.

    When a digraph was checked, omsr must equal
    oriented and regular2 and (aut_order == group_order), and |G| divides
    aut_order when the right translations embed; the constructor enforces
    both.  Exception rows carry a certificate instead of digraph facts:
    the `SweepResult` of the exhausted scan, as dispatch returned it.
    """

    group_label: str
    m: int
    group_order: int
    construction_kind: str
    omsr: bool
    oriented: Optional[bool] = None
    regular2: Optional[bool] = None
    connected: Optional[bool] = None
    aut_order: Optional[int] = None
    stabilizer_order: Optional[int] = None
    orbit_count: Optional[int] = None
    translations_embed: Optional[bool] = None
    runtime_ms: float = 0.0
    certificate: Optional[SweepResult] = None

    def __post_init__(self):
        if self.aut_order is not None:
            expected = bool(self.oriented and self.regular2
                            and self.aut_order == self.group_order)
            if self.omsr != expected:
                raise ValueError("omsr flag inconsistent with its defining conjunction")
            if self.translations_embed and self.aut_order % self.group_order != 0:
                raise ValueError("aut_order must be a multiple of the group order "
                                 "when the translations embed")

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["runtime_ms"] = round(self.runtime_ms, 3)
        if out.pop("certificate") is not None:
            out["certificate"] = self.certificate.certificate_dict()
        return out

    def summary(self) -> str:
        if self.certificate is not None:
            return (f"{self.group_label} m={self.m}: certified exception "
                    f"(no witness among {self.certificate.tables_enumerated} tables, "
                    f"{self.certificate.oriented_count} oriented, "
                    f"max |Aut| seen {self.certificate.max_aut_order_seen})")
        return (f"{self.group_label} m={self.m} [{self.construction_kind}]: "
                f"omsr={self.omsr} oriented={self.oriented} regular2={self.regular2} "
                f"connected={self.connected} |Aut|={self.aut_order} "
                f"|G|={self.group_order} stab={self.stabilizer_order}")
