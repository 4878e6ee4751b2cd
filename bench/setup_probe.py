"""Set-up probe: a fresh interpreter runs ``roadsearch run`` up to its first
evaluation, prints ``time.monotonic()`` at that moment and exits.

    python3 bench/setup_probe.py <src dir> <roadsearch run arguments...>

The parent takes the clock before it spawns this process, so the
difference is interpreter start, imports and configuration.
"""
import sys
import time

sys.path.insert(0, sys.argv[1])

from roadsearch import cli  # noqa: E402  (the path above selects the tree)


class FirstEvaluation(Exception):
    pass


def _run_search(config, evaluator, **kwargs):
    def first(ind):
        print(repr(time.monotonic()), flush=True)
        raise FirstEvaluation
    return original(config, first, **kwargs)


original = cli.run_search
cli.run_search = _run_search
try:
    cli.main(sys.argv[2:])
except FirstEvaluation:
    sys.exit(0)
sys.exit("setup probe: the run ended without evaluating anything")
