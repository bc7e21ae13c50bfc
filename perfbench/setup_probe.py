"""Set-up work of one workload, run in a fresh interpreter to time ``setup_s``.

Usage: python3 setup_probe.py ROOT [CONFIG.json ...]

Imports the ``mlab`` CLI from ``ROOT/src``, then loads, schema-validates and
builds every given experiment config, as a scan command does before it
starts computing.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(sys.argv[1]) / "src"))

import mlab.cli  # noqa: E402,F401  (the import is the measured work)
from mlab.harness import ExperimentConfig  # noqa: E402
from mlab.schemas import validate_config  # noqa: E402

for path in sys.argv[2:]:
    payload = json.loads(Path(path).read_text())
    validate_config(payload)
    ExperimentConfig(**{**payload, "p": tuple(payload["p"])})
