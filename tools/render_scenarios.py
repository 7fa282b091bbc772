"""Rewrite the built-in scenario files in canonical form.

Scenario files must be byte-exact canonical JSON, which is tedious to
edit by hand. Edit a file under ``src/atcpip/scenarios/`` in any JSON
layout (pretty-printed, decimals with one to four fractional digits),
then run from the repository root:

    python3 tools/render_scenarios.py

Every built-in is parsed, validated as a scenario whose name matches its
file, and written back as its canonical bytes plus a newline. A file
that fails is left as it is, and the script exits 1. Running it on
files already in canonical form changes nothing.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from atcpip import canon  # noqa: E402
from atcpip.errors import AtcpipError, ParseError  # noqa: E402
from atcpip.scenario import scenario_from_bytes  # noqa: E402
from atcpip.scenarios import BUILTIN_SCENARIOS  # noqa: E402

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "atcpip" / "scenarios"


def render(path):
    """Canonical bytes of one scenario file; raises AtcpipError if invalid."""
    raw = canon.dumps(canon.loads(path.read_bytes())) + b"\n"
    scenario = scenario_from_bytes(raw)
    if scenario.name != path.stem:
        raise ParseError(f"scenario is named {scenario.name!r}, not {path.stem!r}")
    return raw


def main():
    failed = False
    for name in BUILTIN_SCENARIOS:
        path = SCENARIO_DIR / f"{name}.json"
        try:
            raw = render(path)
        except AtcpipError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            failed = True
            continue
        path.write_bytes(raw)
        print(f"wrote {path} ({len(raw)} bytes)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
