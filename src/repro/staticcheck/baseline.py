"""The committed findings baseline: accepted debt pinned, drift fatal.

``staticcheck_baseline.json`` pins the findings that existed (and were
reviewed and accepted) when a rule landed.  The contract, enforced by
:func:`diff_against_baseline`:

* a current finding whose ``(rule, path, snippet)`` key is pinned is
  *accepted* — it does not fail the build;
* a current finding with no pinned entry is *new* — it fails the build;
* a pinned entry with no current finding is *stale* — it also fails the
  build (``--baseline-update`` rewrites the file), so the baseline can
  only shrink deliberately, never rot;
* a pinned entry for a file outside the scanned paths is out of scope —
  a narrowed scan neither reports it stale nor drops it on update.

Keys count multiplicity: two identical offending lines in one file need
two pinned entries, and fixing one of them makes the other entry stale
only if both disappear.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .findings import Finding

__all__ = ["Baseline", "BaselineError", "diff_against_baseline", "write_baseline"]

_VERSION = 1

Key = Tuple[str, str, str]  # (rule, path, snippet)


class BaselineError(ValueError):
    """The baseline file is malformed (bad JSON or wrong shape)."""


@dataclass
class Baseline:
    """Parsed baseline: multiset of accepted finding keys."""

    entries: Counter

    @classmethod
    def empty(cls) -> "Baseline":
        return cls(entries=Counter())

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise BaselineError(f"{path}: malformed baseline JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("version") != _VERSION:
            raise BaselineError(
                f"{path}: expected a baseline object with version={_VERSION}"
            )
        raw = payload.get("findings")
        if not isinstance(raw, list):
            raise BaselineError(f"{path}: 'findings' must be a list")
        entries: Counter = Counter()
        for item in raw:
            if not isinstance(item, dict) or not all(
                isinstance(item.get(field), str)
                for field in ("rule", "path", "snippet")
            ):
                raise BaselineError(
                    f"{path}: every baseline entry needs string rule/path/snippet"
                )
            count = item.get("count", 1)
            if not isinstance(count, int) or count < 1:
                raise BaselineError(f"{path}: entry count must be a positive int")
            entries[(item["rule"], item["path"], item["snippet"])] += count
        return cls(entries=entries)


@dataclass
class BaselineDiff:
    """Outcome of matching current findings against the baseline."""

    new: List[Finding]
    accepted: List[Finding]
    stale: List[Key]

    @property
    def clean(self) -> bool:
        return not self.new and not self.stale


def out_of_scope(baseline: Baseline, in_scope: Callable[[str], bool]) -> Counter:
    """The pinned entries whose file lies outside the scanned paths."""
    return Counter(
        {key: count for key, count in baseline.entries.items() if not in_scope(key[1])}
    )


def diff_against_baseline(
    findings: Sequence[Finding], baseline: Baseline
) -> BaselineDiff:
    remaining = Counter(baseline.entries)
    new: List[Finding] = []
    accepted: List[Finding] = []
    for finding in sorted(findings):
        if remaining[finding.key] > 0:
            remaining[finding.key] -= 1
            accepted.append(finding)
        else:
            new.append(finding)
    stale = sorted(
        key for key, count in remaining.items() for _ in range(count)
    )
    return BaselineDiff(new=new, accepted=accepted, stale=stale)


def write_baseline(
    findings: Sequence[Finding], path: Path, kept: Optional[Counter] = None
) -> Dict[str, object]:
    """Serialize ``findings`` plus the ``kept`` entries as the new baseline
    (sorted, deterministic)."""
    counts: Counter = Counter(finding.key for finding in findings) + (kept or Counter())
    payload = {
        "version": _VERSION,
        "findings": [
            {"rule": rule, "path": rel_path, "snippet": snippet, "count": count}
            for (rule, rel_path, snippet), count in sorted(counts.items())
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload
