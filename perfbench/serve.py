"""``repro serve`` with the benchmark's layer spans installed.

Traced runs of ``service_mix`` start the server through this script so that
store writes, LP solves and simulation batches inside traced requests record
spans (see :mod:`layers`).  Arguments are those of ``python -m repro serve``.
"""

import sys

import layers

if __name__ == "__main__":
    layers.install()
    from repro.cli import main

    sys.exit(main(["serve", *sys.argv[1:]]))
