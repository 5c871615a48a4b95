"""Run observers: the one way an opt-in layer attaches to a serve run.

:meth:`repro.serve.engine.ServeEngine.run` builds one list of
:class:`RunObserver` at run start from its config and calls every hook
on every observer in list order.  Observers only watch, so no set of
them changes an assignment outcome.
"""

from __future__ import annotations

import time

from repro.obs.metrics import labelled
from repro.obs.recorder import counter, gauge, histogram


class RunObserver:
    """Hooks of one serve run; every hook is a no-op by default.

    Per event the engine calls ``advance(t)`` before dispatching it and
    ``dispatched(event, queue_depth)`` after its ``_on_event``.  In
    between, at the decision sites: ``arrived`` for every arrival, then
    ``dead_on_arrival``, ``admitted`` or ``shed_on_arrival`` (plus
    ``displaced`` for a pending task shed to make room); per batch
    ``considered`` for the tasks put before the matcher and ``offered``
    for each proposed pair once the worker decided; ``prepositioned``
    for each forecast move; ``cancelled`` and ``expired`` (with
    ``horizon=True`` for tasks still pending when the run ends).  A
    successful run ends with ``report(result)``, which writes the
    layer's accounting into the ``ServeResult``; ``close()`` always
    runs.  Both go in reverse list order, so the first observer to see
    each tick reports last.
    """

    #: Whether ``offered`` reads ``predicted_p``: the engine scores an
    #: offer (Theorem 2) only when some observer does.
    reads_predicted_p = False

    # Dummy implementations; an observer overrides the hooks it needs.
    def advance(self, t): pass
    def arrived(self, task, t): pass
    def dead_on_arrival(self, task, t, cancelled): pass
    def admitted(self, task, t): pass
    def shed_on_arrival(self, task, t): pass
    def displaced(self, task_id, t): pass
    def considered(self, task_ids, n_available, candidates, cache_hit_rate): pass
    def offered(self, task_id, worker_id, t, accepted, predicted_p=None, warm_tier=None): pass
    def prepositioned(self, move): pass
    def cancelled(self, task_id, t): pass
    def expired(self, task_id, t, horizon=False): pass
    def dispatched(self, event, queue_depth): pass
    def report(self, result): pass
    def close(self): pass


class LifecycleMetrics(RunObserver):
    """Serving metrics for an active recorder: time-to-assign, expiry
    phase (``assigned`` once a worker rejected the task), shed reason,
    event-loop lag and heap depth."""

    def __init__(self) -> None:
        self._arrival_at: dict[int, float] = {}
        self._rejected: set[int] = set()
        self._event_started = 0.0

    def advance(self, t):
        self._event_started = time.perf_counter()

    def dead_on_arrival(self, task, t, cancelled):
        counter(labelled("serve.task.expired", phase="pending"))

    def admitted(self, task, t):
        self._arrival_at[task.task_id] = t

    def shed_on_arrival(self, task, t):
        counter(labelled("serve.shed.tasks", reason="queue_full"))

    def displaced(self, task_id, t):
        counter(labelled("serve.shed.tasks", reason="deadline_slack"))

    def offered(self, task_id, worker_id, t, accepted, predicted_p=None, warm_tier=None):
        if not accepted:
            self._rejected.add(task_id)
        elif task_id in self._arrival_at:
            histogram("serve.task.time_to_assign", t - self._arrival_at.pop(task_id))

    def expired(self, task_id, t, horizon=False):
        phase = "assigned" if task_id in self._rejected else "pending"
        counter(labelled("serve.task.expired", phase=phase))

    def dispatched(self, event, queue_depth):
        histogram("serve.loop.lag_s", time.perf_counter() - self._event_started)
        gauge("serve.loop.heap_depth", queue_depth)
