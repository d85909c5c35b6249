"""Structured cross-check outcomes shared by the engine and verification suite."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["VerificationEntry", "VerificationReport"]


@dataclass(frozen=True)
class VerificationEntry:
    """One check: expected vs actual, with residual and pass/fail.

    Exact-equality checks use tolerance 0.0 and must have residual 0.0 to
    pass; tolerance-based checks pass iff residual <= tolerance.
    """

    check_id: str
    expected: str
    actual: str
    residual: float
    tolerance: float
    passed: bool
    runtime_ms: int


@dataclass
class VerificationReport:
    """An ordered collection of verification entries."""

    entries: list[VerificationEntry] = field(default_factory=list)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: VerificationEntry) -> None:
        self.entries.append(entry)

    def extend(self, other: "VerificationReport") -> None:
        self.entries.extend(other.entries)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[VerificationEntry]:
        return [e for e in self.entries if not e.passed]

    def sorted_entries(self) -> list[VerificationEntry]:
        """Entries sorted by check_id, the canonical serialization order."""
        return sorted(self.entries, key=lambda e: e.check_id)
