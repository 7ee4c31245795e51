"""Immutable value records as plain ``__slots__`` classes, so importing the
package loads no ``dataclasses`` (nor the ``inspect``, ``ast``, ``dis`` and
``tokenize`` it pulls in) and processes no class on import."""

from __future__ import annotations


class Record:
    """Fields ``_fields``, set once from positional or keyword arguments, the
    last ``len(_defaults)`` optional; equality and hashing by class and field
    values.  ``_check`` validates every construction, :meth:`replace`'s too."""

    __slots__ = ()
    _fields: tuple = ()
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            values = dict(zip(fields[len(fields) - len(self._defaults):], self._defaults))
            values.update(zip(fields, args))
            bad = set(kwargs) - set(fields[len(args):])
            values.update(kwargs)
            if len(args) > len(fields) or bad or len(values) < len(fields):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}, "
                                f"got {len(args)} positional and {sorted(kwargs)}")
            args = [values[f] for f in fields]
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)
        self._check()

    def _check(self) -> None:
        """Validate the fields; the default accepts any."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({body})"

    def replace(self, **changes):
        """A new record with ``changes`` applied, checked as a constructed one."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})
