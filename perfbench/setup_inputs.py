"""Write a workload's input profiles through the library, in a fresh interpreter.

Usage: python3 setup_inputs.py SRC_DIR OUT_DIR SPEC_JSON

SPEC_JSON is a list of ``[profile_id, c]`` pairs: the built-in corpus
profile is multiplied by the linear phase ``exp(i c xi)``, which translates
its field by ``c``, and written to ``OUT_DIR/<profile_id>.csv``.  The run
time of this script is the benchmark's set-up time: it covers the package
import and the corpus construction as well as the writes.
"""

import json
import sys
from pathlib import Path


def write_inputs(out_dir, profiles) -> None:
    """Write each ``(profile_id, c)`` corpus profile, translated by ``c``."""
    import numpy as np

    from ostrovsky_lab import default_corpus
    from ostrovsky_lab.fileio import write_profile

    corpus = {entry.profile_id: entry.profile for entry in default_corpus()}
    for profile_id, c in profiles:
        p = corpus[profile_id]
        shifted = p.with_amplitudes(p.amplitudes * np.exp(1j * c * p.xi)) if c else p
        write_profile(shifted, Path(out_dir) / f"{profile_id}.csv")


def main(src: str, out_dir: str, spec: str) -> None:
    import ostrovsky_lab

    src_dir = Path(src).resolve()
    if src_dir not in Path(ostrovsky_lab.__file__).resolve().parents:
        raise SystemExit(f"imported {ostrovsky_lab.__file__}, not the package under {src_dir}")
    write_inputs(out_dir, json.loads(spec))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        raise SystemExit(__doc__)
    main(*sys.argv[1:])
