"""Deterministic derivation of independent child seeds, the integer check
that every size, count and seed of the package goes through, and the real
test that every rate and offset goes through."""

import numbers

import numpy as np


def checked_int(value, name, minimum=0):
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer of at least ``minimum`` (``None``: no lower bound).

    Python and numpy integers pass; booleans, floats, whole or not, and
    strings do not.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer")
    if minimum is not None and value < minimum:
        bound = {0: "non-negative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise ValueError(f"{name} must be {bound}")
    return int(value)


def is_real(value):
    """True for a Python or numpy real number that is not a boolean; strings and arrays are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def spawn_seed(seed, *path):
    """Derive a child seed from ``seed`` and a path of integer keys.

    Distinct paths give statistically independent streams, and the
    derivation is a pure function of its arguments, so parallel and
    serial schedules produce identical child seeds. The seed and the keys
    must be non-negative integers.
    """
    keys = [checked_int(seed, "seed"), *(checked_int(k, "path key") for k in path)]
    ss = np.random.SeedSequence(keys)
    return int(ss.generate_state(1, np.uint64)[0])
