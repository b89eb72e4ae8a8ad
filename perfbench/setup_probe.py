"""Set-up probe: what a fresh process does before its first solve.

Imports toppkit.cli, then loads each spec file and builds its model and
grid. Arguments are pairs of spec file and grid size. The caller times
the whole process.
"""

import json
import sys

import toppkit.cli  # noqa: F401  (the import is part of what is timed)
from toppkit import PathSpec, build_model


def main(argv: list) -> int:
    for spec_file, n in zip(argv[::2], argv[1::2]):
        with open(spec_file, encoding="utf-8") as fh:
            path = PathSpec.from_json_dict(json.load(fh))
        build_model(path)
        path.grid(int(n))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
