"""Check every pinned value of tests/golden.json, each in a fresh process.

An entry runs its CLI argv after a command prefix, or its python script
with `python -c`, with its env added to the environment.  It must exit
0, and its stdout, cut as `sed -n <line>p | cut -d, -f<fields>` cuts it
where the entry gives a line (whole, less the trailing newline,
otherwise), must read expect exactly.  A declared change of a pinned
value edits that entry's expect by hand.

    python tests/golden.py    # through the installed `convlab` script
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ENTRIES = json.loads(Path(__file__).with_name("golden.json").read_text())


def check(entry: dict, prefix: list) -> str | None:
    """Why entry fails when run after the command prefix, or None where it holds."""
    cmd = prefix + entry["argv"] if "argv" in entry else [sys.executable, "-c", entry["python"]]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300,
                          env={**os.environ, **entry.get("env", {})})
    value = proc.stdout.rstrip("\n")
    if "line" in entry:
        row = (value.split("\n") + [""] * entry["line"])[entry["line"] - 1]
        first, _, last = entry["fields"].partition("-")
        value = ",".join(row.split(",")[int(first) - 1 : int(last or first)])
    if proc.returncode == 0 and value == entry["expect"]:
        return None
    return (f"{' '.join(cmd)}: exit {proc.returncode}, read {value!r}, "
            f"expected {entry['expect']!r}\n{proc.stderr}")


def main(prefix: list) -> int:
    failures = [f for f in (check(entry, prefix) for entry in ENTRIES) if f]
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(ENTRIES) - len(failures)} of {len(ENTRIES)} pinned values hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(["convlab"]))
