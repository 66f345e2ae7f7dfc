"""The benchmark tracer wraps named functions of the program from outside;
a traced benchmark run fails when one of them is missing. This test makes a
rename fail here first. It only reads perfbench/tracer.py."""

from pathlib import Path

import promptblend.cli  # noqa: F401  (loads every promptblend module, as the tracer does)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    # exec rather than import, so no bytecode cache is written beside it
    tracer = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), tracer)
    missing = [f"{owner}.{attr}" for _, owner, attr in tracer["TARGETS"]
               if vars(tracer["_resolve"](owner) or object).get(attr) is None]
    assert not missing, f"tracer targets not defined: {missing}"
