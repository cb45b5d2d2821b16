"""Compact pickling for the simulator's high-volume ``__slots__`` records."""

from __future__ import annotations

from operator import attrgetter


class CompactSlots:
    """Mixin: pickle a ``__slots__`` record as the bare tuple of its values.

    A session checkpoint holds thousands of packets, SDUs and trace legs.
    Pickle's default state for a slotted object is a ``{slot: value}``
    dict whose every key costs a memo reference, one or four bytes wide
    depending on where in the object graph the first record of its class
    happened to be pickled.  A bare tuple carries no names, so the size
    no longer depends on traversal order.  The default form still loads,
    so checkpoints written before stay readable.

    A subclass lists every slot (at least three, so the default form's
    pair is told apart) in its own ``__slots__`` and sets each one in
    ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._slot_values = attrgetter(*cls.__slots__)

    def __getstate__(self) -> tuple:
        return self._slot_values(self)

    def __setstate__(self, state: tuple) -> None:
        if len(state) != len(self.__slots__):
            # Pickle's default form: (None, {slot: value}).
            for name, value in state[1].items():
                setattr(self, name, value)
            return
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)
