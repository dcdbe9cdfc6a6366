"""Set-up probe: time from a fresh interpreter to gcnet's first operation.

Usage: python3 setup_probe.py SRC_DIR Q1,Q2,... SPAWN_TIME

Imports gcnet and its CLI from SRC_DIR, builds the GF(q) fields listed,
and prints the seconds elapsed since SPAWN_TIME, a reading of the
system-wide monotonic clock that the parent took just before starting
this interpreter.
"""

import sys
import time


def main() -> int:
    src, fields, spawned = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, src)
    import gcnet.cli  # noqa: F401  (the operations enter through the CLI)
    from gcnet.ffield import field_from_size

    for q in fields.split(","):
        field_from_size(int(q))
    print(time.clock_gettime(time.CLOCK_MONOTONIC) - spawned)
    return 0


if __name__ == "__main__":
    sys.exit(main())
