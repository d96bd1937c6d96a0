"""``python -m repro`` with layer spans recorded in every server process.

Usage is identical to ``python -m repro ...``; with ``$PERFBENCH_SPANS_DIR``
set, the wrappers of :mod:`perfbench.tracing` are installed at import time.
``spawn`` worker processes re-import this file as ``__mp_main__`` (only the
code above the ``__main__`` check runs there), so each worker installs the
same wrappers before it starts serving.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracing import install_from_environment  # noqa: E402

install_from_environment()

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
