"""Set-up time of one fresh process: import partmix and run one op of each kind.

Usage: python3 setup_probe.py SRC_DIR OPS_JSON

OPS_JSON holds a list of CLI argument lists. Prints {"setup_s": seconds} as
its last line, timed from just before ``import partmix`` to the end of the
last op, so that lazy caches the ops fill are part of the figure.
"""

import json
import sys
import time


def main() -> int:
    src, ops_file = sys.argv[1], sys.argv[2]
    with open(ops_file) as fh:
        ops = json.load(fh)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import partmix  # noqa: F401
    import partmix.cli

    for argv in ops:
        if partmix.cli.main(argv) != 0:
            print(f"warm-up op failed: {argv}", file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
