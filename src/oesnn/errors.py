"""Exception types shared across the package, and the field-bound check of the parameter records."""

import dataclasses
import functools
import operator
import typing


class DimensionError(TypeError):
    """Arithmetic or comparison attempted across incompatible dimensions."""


class DomainError(ValueError):
    """An argument is outside the physical domain of a model."""


class InfeasibleError(DomainError):
    """The requested operating point cannot be realized (e.g. 100% detection)."""


class ConfigError(ValueError):
    """A scenario document or a technology table cannot be read or breaks its schema.

    Collects every problem found so a bad document is reported in one pass.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid document:\n" + "\n".join(f"  - {p}" for p in self.problems))


class SimulationError(RuntimeError):
    """A run that cannot finish or be written: an exceeded event budget, a faulting memory write,
    or figures out of float range."""

    def __init__(self, message, trace_tail=()):
        self.trace_tail = list(trace_tail)
        if self.trace_tail:
            tail = "\n".join(f"    {e}" for e in self.trace_tail)
            message = f"{message}\n  last events:\n{tail}"
        super().__init__(message)


_LIMITS = (
    ("gt", ">", operator.gt),
    ("ge", ">=", operator.ge),
    ("lt", "<", operator.lt),
    ("le", "<=", operator.le),
)


def bounded(default=dataclasses.MISSING, **limits):
    """A record field with bounds: any of ``gt``, ``ge``, ``lt`` and ``le``, kept as the field's metadata."""
    return dataclasses.field(default=default, metadata=limits)


@functools.cache
def record_fields(cls) -> dict:
    """Each field of a dataclass record by name, with its resolved type hint."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in dataclasses.fields(cls)}


def bound_problem(name: str, value, hint, bounds) -> str | None:
    """The bound of a field that ``value`` breaks, as a problem string, or None.

    ``bounds`` is the field's metadata; a ``Literal`` hint bounds the value
    to its choices.
    """
    if typing.get_origin(hint) is typing.Literal:
        choices = typing.get_args(hint)
        return None if value in choices else f"{name}: must be {' or '.join(map(repr, choices))}, got {value!r}"
    for key, text, holds in _LIMITS:
        if key in bounds and not holds(value, bounds[key]):
            return f"{name}: must be {text} {bounds[key]}, got {value}"
    return None


def check_bounds(record) -> None:
    """Raise :class:`DomainError` for the first field of ``record`` outside its bounds.

    Tuple fields are checked item by item, and ``None`` is never out of bounds.
    """
    for f, hint in record_fields(type(record)).values():
        value = getattr(record, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            problem = item is not None and bound_problem(f.name, item, hint, f.metadata)
            if problem:
                raise DomainError(problem)
