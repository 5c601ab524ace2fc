"""The repro CLI with the benchmark's layer shims installed.

    PERFBENCH_SPANS=<dir> python3 perfbench/traced_main.py run table3 --jobs 1 ...

Identical to ``python3 -m repro ...`` except that every call into a
layer's public functions is recorded as a span (see ``tracer.py``).
"""

import sys

from tracer import install_from_env

if __name__ == "__main__":
    if install_from_env() is None:
        sys.exit("traced_main.py needs PERFBENCH_SPANS set to a span directory")
    from repro.harness.cli import main

    sys.exit(main(sys.argv[1:]))
