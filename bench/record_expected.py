"""Record the exit code and stdout sha256 of every request cli-oneshot
can draw, as the reference the benchmark checks byte-stability against.

    python3 bench/record_expected.py

Run it only at the commit whose output is the reference; the committed
file must not be refreshed to hide an output change.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import cli_oneshot
import common


def main() -> int:
    common.pin_environment()
    requests = {}
    for kind, pool in cli_oneshot.universe().items():
        for args in pool:
            args = args + ("--json",)
            proc = subprocess.run([sys.executable, "-m", "tpqr.cli", *args],
                                  cwd=common.ROOT, capture_output=True, timeout=120)
            stderr = proc.stderr.decode(errors="replace")
            if "Traceback" in stderr or (kind == "error") != (proc.returncode == 2):
                print(f"unexpected outcome for {args}: rc {proc.returncode}\n{stderr}",
                      file=sys.stderr)
                return 1
            requests[cli_oneshot.key(args)] = {
                "rc": proc.returncode,
                "sha256": hashlib.sha256(proc.stdout).hexdigest(),
            }
    record = {
        "recorded_at": {"git_sha": common.git_sha(), "src_sha256": common.src_sha256()},
        "requests": requests,
    }
    cli_oneshot.EXPECTED.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(requests)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
