"""docs/protocol.md against the code: its state lists, its Clocks table
and its failure reasons are read from the document and compared with
the protocol module, so a change to either one shows up here."""

import re
from pathlib import Path

from atcpip import protocol
from atcpip.protocol import WAITS, ProviderState, RequesterState

DOC = (Path(__file__).resolve().parent.parent / "docs" / "protocol.md").read_text()


def section(title):
    """The text under a ``###`` heading, up to the next heading."""
    start = DOC.index(f"\n### {title}\n")
    end = DOC.find("\n#", start + 1)
    return DOC[start:end]


def listed_states(role):
    """The states a ``Role: `a`, `b`, ...`` paragraph of States names, in order."""
    paragraph = section("States").split(f"\n{role}: ", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`([a-z_]+)`", paragraph)


def clock_rows():
    """(role, state, wait, on expiry) for each row of the Clocks table."""
    rows = []
    for line in section("Clocks").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] in ("provider", "requester"):
            rows.append((cells[0], cells[1].strip("`"), cells[2].strip("`"), cells[3]))
    return rows


def test_states_lists_match_the_state_enums():
    assert listed_states("Provider") == [state.value for state in ProviderState]
    assert listed_states("Requester") == [state.value for state in RequesterState]


# How the Clocks table words an expiry that takes a step, by the step's name.
STEP_OUTCOMES = {
    "_provider_enter_settlement": "proceeds on the standing terms",
    "_provider_complete": "completes the deal, unacknowledged",
}


def test_clocks_table_matches_the_timer_tables():
    expected = [
        (
            "provider" if isinstance(state, ProviderState) else "requester",
            state.value,
            wait,
            STEP_OUTCOMES[outcome.__name__] if callable(outcome) else f'fails: `"{outcome}"`',
        )
        for state, (wait, outcome) in WAITS.items()
    ]
    assert clock_rows() == expected


def test_every_failure_reason_is_listed():
    reasons = [
        value
        for name, value in vars(protocol).items()
        if name.startswith("NO_") and name.endswith("_FAILURE")
    ]
    assert len(reasons) == 6
    clocks = section("Clocks")
    for reason in reasons:
        assert f'`"{reason}"`' in clocks, reason
