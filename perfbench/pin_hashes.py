#!/usr/bin/env python3
"""Write expected_hashes.json: artifact hashes of every workload at the pinned seed.

    python3 perfbench/pin_hashes.py

Run from the root of a checkout whose outputs are known to be right. A
change that alters any pinned artifact must say why before re-pinning.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

from run import ROOT, WORK, import_dyne


def main() -> int:
    dyne = import_dyne()
    os.chdir(ROOT)
    import checks
    import workloads

    pinned = {}
    for name, build in workloads.BUILDERS.items():
        work = WORK / "pin" / name
        shutil.rmtree(work, ignore_errors=True)
        wl = build(checks.PINNED_SEED, work)
        out = work / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            code = dyne.cli.main(wl.cli_argv(out.as_posix()))
        if code != 0:
            sys.exit(f"error: {name} exited {code}; nothing pinned")
        pinned[name] = checks.artifact_hashes(out)
        print(f"{name}: {len(pinned[name])} artifacts")
    shutil.rmtree(WORK / "pin", ignore_errors=True)
    checks.EXPECTED_HASHES.write_text(json.dumps(pinned, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
