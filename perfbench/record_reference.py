"""Record the noiseless reference images the simulate check compares against.

    python3 perfbench/record_reference.py

Run only when the expected physics changes on purpose; the stored file is
what makes a numerical regression of the forward model visible.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run._load_program()
    from workloads import REFERENCE_PATH, REFERENCE_SHAPE, reference_series

    work = Path(tempfile.mkdtemp(prefix=".perfbench-ref-", dir=run.ROOT))
    try:
        images = reference_series(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if images.shape != REFERENCE_SHAPE:
        print(f"reference series has shape {images.shape}, expected {REFERENCE_SHAPE}",
              file=sys.stderr)
        return 1
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    images.astype("<f4").tofile(REFERENCE_PATH)
    print(f"wrote {REFERENCE_PATH} {images.shape}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
