"""Rewrite ``golden/record.json``, the record ``test_golden.py`` holds the CLI to.

Run from the repository root: ``PYTHONPATH=src python tests/record_golden.py``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from test_golden import CASES, RECORD, run_case, write_inputs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp) / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        record = {case: run_case(argv, inputs, Path(tmp) / str(i)) for i, (case, argv)
                  in enumerate(CASES.items())}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(record)} cases written to {RECORD}")


if __name__ == "__main__":
    main()
