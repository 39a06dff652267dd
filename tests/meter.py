"""A deterministic work meter: the bytecodes each function of cbfrrt runs.

meter(fn, *args) calls fn(*args) once to warm up (a first call may run
one-time work, such as a baseline's lazy numpy.random import), then again
under sys.settrace with frame.f_trace_opcodes set, and returns the bytecodes
run per (module file, function). Only frames whose code lives in the cbfrrt
package are counted: code of another library can run inside any call
(hypothesis's garbage-collection hook, once a @given test has run) and would
add a count that varies from call to call.

Limits: a C call (math.cos, a numpy scan, base64 encoding) counts as one
bytecode, so the meter complements wall time and never stands for it; counts
differ between Python versions, so compare them within one interpreter only.
A metered call runs about 60 times slower.

Print the per-function counts of the fixed plans (example1 t_h 0.5 seed 0,
example2 seeds 0 and 3), one `plan function count` line each, to diff
before and after a change:

    PYTHONPATH=src python tests/meter.py
"""

from __future__ import annotations

import pathlib
import sys
from collections import Counter

import cbfrrt
from cbfrrt import harness, planner

PACKAGE = pathlib.Path(cbfrrt.__file__).resolve().parent
SCENARIOS = PACKAGE / "scenarios"
PLANS = (("example1", 0), ("example2", 0), ("example2", 3))


def meter(fn, *args) -> dict[tuple[str, str], int]:
    """Bytecodes run per (module file name, function name) by the package's
    code in one call of fn(*args), after one warm-up call."""
    fn(*args)
    package = str(PACKAGE)
    counts = Counter()

    def call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True

        def local(frame, event, arg):
            if event == "opcode":
                counts[code] += 1
            return local
        return local

    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    out = Counter()
    for code, n in counts.items():
        out[pathlib.Path(code.co_filename).name, code.co_name] += n
    return dict(out)


def main():
    for name, seed in PLANS:
        scenario = harness.load_scenario(SCENARIOS / f"{name}.json").scenario
        counts = meter(planner.plan, scenario, seed)
        label = f"{name}/seed={seed}"
        for (module, function), n in sorted(counts.items()):
            print(f"{label} {module}:{function} {n}")
        print(f"{label} total {sum(counts.values())}")


if __name__ == "__main__":
    main()
