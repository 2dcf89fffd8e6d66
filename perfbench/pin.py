"""Write the default-seed pins the output gate compares against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/pin.py

It generates every workload's corpora at the default seed, runs each
workload's operation once, and writes ``perfbench/pins.json`` (corpus and
output digests, the model file's digest without its weights) and
``perfbench/pins_es_model.npz`` (the ES model's weights and bias). Re-pin
only in a change that means to change the program's outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workload as wl  # noqa: E402


def main() -> int:
    run = wl.import_program()
    base = wl.ROOT / ".perfbench" / f"pin-{os.getpid()}"
    pins = {"seed": wl.DEFAULT_SEED, "sizes": wl.pin_sizes(), "inputs": {}, "outputs": {}}
    try:
        for name in wl.WORKLOADS:
            workdir = base / name
            workdir.mkdir(parents=True)
            os.chdir(workdir)
            info = wl.setup(name, wl.DEFAULT_SEED, run)
            pins["inputs"].update(info["inputs"])
            codes, _, outputs = wl.run_op(run, wl.op_steps(name, wl.DEFAULT_SEED))
            if any(codes):
                raise SystemExit(f"{name}: exit codes {codes}")
            for output, data in outputs.items():
                if output != wl.MODEL:
                    pins["outputs"][output] = gate.sha256(data)
            if name == "es-train":
                sections, weights, bias, _ = gate.model_parts(outputs[wl.MODEL])
                pins["model_sections"] = sections
                np.savez_compressed(gate.WEIGHTS_FILE, weights=weights, bias=np.float64(bias))
    finally:
        os.chdir(wl.ROOT)
        shutil.rmtree(base, ignore_errors=True)
    gate.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {gate.PINS_FILE.name} and {gate.WEIGHTS_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
