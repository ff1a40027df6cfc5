"""Set-up probe: a fresh interpreter that stops at the first trial.

``run.py`` starts ``python3 -m perfbench.setup_probe <argv.json>`` and
times it from before the process starts to the marker line printed here.
That span covers interpreter start, ``import tomoments`` (numpy, scipy),
CLI and spec parsing, ``true_covariance`` and ``fisher_information``: the
work done before the first trial.  After the marker, the probe prints the
scale from one calibration sample (``calibrate.py``) and exits.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path

MARKER = "first-trial"


def _stop(*args, **kwargs):
    sys.__stdout__.write(MARKER + "\n")
    sys.__stdout__.flush()
    from .calibrate import REFERENCE_S, Calibrator

    # after the timed span: the factor that scales the set-up time to the reference speed
    sys.__stdout__.write(f"{REFERENCE_S / Calibrator().sample()!r}\n")
    sys.__stdout__.flush()
    os._exit(0)


def main(argv) -> int:
    call = json.loads(Path(argv[0]).read_text())
    from .measure import import_program

    import_program()
    from tomoments import cli, experiments

    for name in ("derive_seed", "estimate", "estimate_parametric"):
        setattr(experiments, name, _stop)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(call)
    print(f"no trial reached (exit code {code})", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
