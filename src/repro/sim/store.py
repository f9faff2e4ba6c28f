"""Buffered item stores (bounded queues) for producer/consumer models.

Descriptor rings, socket buffers and switch queues are all Stores: a
``put`` blocks when the store is full (back-pressure) and a ``get``
blocks when it is empty.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event, URGENT, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is in.

    Store events set their slots directly rather than through
    ``Event.__init__`` (one call less on every ring operation).
    """

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        sim = store.sim
        self.sim = sim
        self.name = f"put:{store.name}" if sim.trace is not None else ""
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the item."""

    __slots__ = ("filter",)

    def __init__(self, store: "Store",
                 filter: Optional[Callable[[Any], bool]] = None) -> None:
        sim = store.sim
        self.sim = sim
        self.name = f"get:{store.name}" if sim.trace is not None else ""
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._processed = False
        self.filter = filter


class Store:
    """FIFO store with finite or infinite capacity."""

    __slots__ = ("sim", "capacity", "name", "items", "_putters", "_getters",
                 "stats")

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),
                 name: str = "store") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items: deque = deque()
        # Waiter queues are short, so they are lists: an empty deque
        # allocates a 64-slot block, an empty list nothing.
        self._putters: list = []
        self._getters: list = []
        self.stats = {"puts": 0, "gets": 0, "max_level": 0}

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event fires once there is room."""
        put_event = StorePut(self, item)
        self._putters.append(put_event)
        self._dispatch()
        return put_event

    def get(self) -> StoreGet:
        """Remove the oldest item; the event fires with the item."""
        get_event = StoreGet(self)
        self._getters.append(get_event)
        self._dispatch()
        return get_event

    def try_get(self) -> Any:
        """Non-blocking get: the item, or None if empty.

        Only safe when no getters are queued (otherwise it would jump
        the line); raises in that case.
        """
        if self._getters:
            raise SimulationError(f"try_get on {self.name!r} with waiters")
        if not self.items:
            return None
        item = self.items.popleft()
        self.stats["gets"] += 1
        if self._putters:
            # Room freed for a blocked putter (no getters can be
            # queued here, see above).
            self._dispatch()
        return item

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: False when full (or putters are queued,
        which a sync insert would overtake).

        The synchronous fast path for sole-producer loops: the seed
        path's put event only exists to wake the producer again at the
        same instant, so skipping it does not move any timestamp.
        """
        if self._putters or len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        self.stats["puts"] += 1
        if len(self.items) > self.stats["max_level"]:
            self.stats["max_level"] = len(self.items)
        if self._getters:
            self._dispatch()
        return True

    # -- internals ----------------------------------------------------------
    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self.items.append(event.item)
            self.stats["puts"] += 1
            if len(self.items) > self.stats["max_level"]:
                self.stats["max_level"] = len(self.items)
            event.succeed(priority=URGENT)
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            self.stats["gets"] += 1
            event.succeed(self.items.popleft(), priority=URGENT)
            return True
        return False

    def _dispatch(self) -> None:
        putters = self._putters
        getters = self._getters
        if not putters and not getters:
            return
        progress = True
        while progress:
            progress = False
            while putters:
                if self._do_put(putters[0]):
                    del putters[0]
                    progress = True
                else:
                    break
            while getters:
                if self._do_get(getters[0]):
                    del getters[0]
                    progress = True
                else:
                    break


class FilterStore(Store):
    """Store whose getters may select items with a predicate.

    Used for receive-side message matching (match by tag/source).
    Getters are served in FIFO order *per matching item*: a getter whose
    filter matches nothing waits without blocking later getters.
    """

    __slots__ = ()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        get_event = StoreGet(self, filter=filter)
        self._getters.append(get_event)
        self._dispatch()
        return get_event

    def _do_get(self, event: StoreGet) -> bool:
        if event.filter is None:
            return super()._do_get(event)
        for index, item in enumerate(self.items):
            if event.filter(item):
                del self.items[index]
                self.stats["gets"] += 1
                event.succeed(item, priority=URGENT)
                return True
        return False

    def _dispatch(self) -> None:
        # Unlike the FIFO store, a blocked getter must not stall the
        # rest: scan all getters each round.
        progress = True
        while progress:
            progress = False
            while self._putters:
                if self._do_put(self._putters[0]):
                    del self._putters[0]
                    progress = True
                else:
                    break
            satisfied = []
            for index, getter in enumerate(self._getters):
                if self._do_get(getter):
                    satisfied.append(index)
                    progress = True
            for index in reversed(satisfied):
                del self._getters[index]
