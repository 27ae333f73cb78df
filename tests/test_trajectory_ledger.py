"""The trajectory is the ledger of host-time claims.

``BENCH_omega.json`` holds the numbers; CHANGES.md and EXPERIMENTS.md
point into it.  These tests fail when a pointer dangles:

- a ``CLAIM MET`` line of CHANGES.md whose claim has no ``pairs`` entry
  (same workload, metric and seeds; the change SHA the line names, or
  the line's PR number where it names none);
- a ``trajectory entry`` cell of an EXPERIMENTS.md row that names no
  entry, or a host-time section with no such row;
- a ``pairs.<workload>.<metric>.ratio`` series whose points are not in
  PR order.  Entries back-filled from the docs (they carry ``source``
  and ``pr``) sit before every entry ``pairs.py --record`` appended, in
  PR order; recorded entries are in append order already, so every
  series reads oldest to newest without a PR number on them.
"""

import re
from pathlib import Path

import pytest

from repro.obs.observatory.trend import (
    DEFAULT_TRAJECTORY,
    extract_point_series,
    load_trajectory,
)

ROOT = Path(__file__).resolve().parents[1]

#: ``(CLAIM MET: `workload` `metric` ...`` and the first seed range after it.
CLAIM = re.compile(r"^- PR (\d+) .*?\(CLAIM MET: `(\w+)` `(\w+)`.*?seeds (\d+)–(\d+)")
#: A change SHA a CHANGES.md line names.
CHANGE_SHA = re.compile(r"change `([0-9a-f]{7,40})`")
#: A ``trajectory entry`` cell: ``pairs``, who, which seeds.
ENTRY_NAME = re.compile(
    r"^`pairs`, (?:change `(?P<sha>[0-9a-f]{7,40})`|PR (?P<pr>\d+)), "
    r"(?:seeds (?P<a>\d+)–(?P<b>\d+)|seed (?P<seed>\d+) ×(?P<n>\d+))$"
)


@pytest.fixture(scope="module")
def pairs():
    return [p for p in load_trajectory(DEFAULT_TRAJECTORY) if p.get("suite") == "pairs"]


def claims():
    out = []
    for line in (ROOT / "CHANGES.md").read_text(encoding="utf-8").splitlines():
        match = CLAIM.match(line)
        if match:
            pr, workload, metric, a, b = match.groups()
            sha = CHANGE_SHA.search(line)
            out.append((int(pr), workload, metric, list(range(int(a), int(b) + 1)),
                        sha and sha[1]))
    return out


def named_entries():
    """(section title, workload, parsed name) for every ``trajectory entry``
    cell of EXPERIMENTS.md."""
    out, title, column = [], None, None
    for line in (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("## "):
            title, column = line, None
        elif line.startswith("| workload |"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            column = cells.index("trajectory entry") if "trajectory entry" in cells else None
        elif column is not None and line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            out.append((title, cells[0].strip("`"), cells[column]))
        elif not line.startswith("|"):
            column = None
    return out


def matches(entry, workload, seeds, sha=None, pr=None):
    """Same workload and seeds; the change SHA when one is named, else
    the PR number of a back-filled entry (a recorded one has none)."""
    if entry["workload"] != workload or entry.get("seeds") != seeds:
        return False
    if sha:
        return (entry.get("change_sha") or "").startswith(sha)
    return entry.get("pr", pr) == pr


def test_changes_md_has_claims():
    assert len(claims()) >= 8


@pytest.mark.parametrize("pr, workload, metric, seeds, sha", claims())
def test_every_claim_met_has_an_entry(pairs, pr, workload, metric, seeds, sha):
    found = [e for e in pairs if matches(e, workload, seeds, sha=sha, pr=pr)]
    assert found, f"PR {pr}: no pairs entry for {workload} seeds {seeds[0]}-{seeds[-1]}"
    series = f"pairs.{workload}.{metric}.ratio"
    assert any(series in extract_point_series(e) for e in found), series


def test_every_named_entry_exists(pairs):
    named = named_entries()
    assert named
    for title, workload, name in named:
        match = ENTRY_NAME.match(name)
        assert match, f"{title}: unreadable trajectory entry {name!r}"
        if match["a"]:
            seeds = list(range(int(match["a"]), int(match["b"]) + 1))
        else:
            seeds = [int(match["seed"])] * int(match["n"])
        pr = int(match["pr"]) if match["pr"] else None
        assert any(matches(e, workload, seeds, sha=match["sha"], pr=pr) for e in pairs), (
            f"{title}: {workload} {name} names no entry"
        )


def test_every_host_time_section_names_an_entry():
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    titles = [line for line in text.splitlines()
              if line.startswith("## ") and ("Host-time" in line or "no gain claimed" in line)]
    named = {title for title, _, _ in named_entries()}
    assert titles
    assert [t for t in titles if t not in named] == []


def test_backfilled_entries_come_first_in_pr_order(pairs):
    backfilled = [entry.get("source") is not None for entry in pairs]
    first_recorded = backfilled.index(False)
    assert not any(backfilled[first_recorded:]), "a back-filled entry after a recorded one"
    prs = [entry["pr"] for entry in pairs[:first_recorded]]
    assert prs == sorted(prs), "back-filled entries out of PR order"
