"""The public API's settable values, pinned: a new knob updates the pin on purpose."""

import dataclasses
import inspect

import motionctx

SETTABLE_VALUES = 84


def settable_values() -> dict[str, int]:
    """Per exported name: a dataclass's fields or a function's defaulted
    parameters. Other names (Enum and plain classes, constants) and names
    with none are not listed."""
    counts = {}
    for name in motionctx.__all__:
        obj = getattr(motionctx, name)
        if dataclasses.is_dataclass(obj):
            n = len(dataclasses.fields(obj))
        elif inspect.isfunction(obj):
            n = sum(p.default is not inspect.Parameter.empty
                    for p in inspect.signature(obj).parameters.values())
        else:
            continue
        if n:
            counts[name] = n
    return counts


def test_settable_value_count_is_pinned():
    counts = settable_values()
    breakdown = ", ".join(f"{name} {n}" for name, n in counts.items())
    assert sum(counts.values()) == SETTABLE_VALUES, breakdown
