"""The one pass over a trajectory's snapshots that every diagnostic reads.

A consumer is a generator.  It yields ``(top, stop)``: it reads the rows below
``stop`` and their derivatives up to order ``top``.  It is then sent each block
``(rows, spec, d)`` of :meth:`gch.integrate.Trajectory.row_blocks`, read-only to
it: ``spec`` is the block's rfft and ``d[k]`` its k-th derivative, one irfft
each, ``d[0]`` the samples.  At the end it is sent None, on which it returns.
:func:`consume` builds one, :func:`together` joins several into one pass, and
:func:`one_pass` makes one a function that runs a pass of its own.
"""

from __future__ import annotations

import functools

__all__ = ["run_pass", "one_pass", "consume", "together"]


def run_pass(traj, consumer):
    """What ``consumer`` returns after one pass over the row blocks of ``traj``."""
    grid, (top, stop) = traj.grid, next(consumer)
    for rows in traj.row_blocks(stop):
        spec = grid.rfft(traj.values[rows])
        diffs = (grid.irfft(grid.diff_hat(spec, k)) for k in range(1, top + 1))
        consumer.send((rows, spec, (traj.values[rows], *diffs)))
        del spec  # freed before the next block is built
    return _finish(consumer)


def one_pass(consumer):
    """``consumer(traj, ...)`` made a function that runs it over a pass of its own.

    The function keeps the consumer's name and docstring, and the consumer as ``.consumer``.
    """

    @functools.wraps(consumer)
    def run(traj, *args, **kwargs):
        return run_pass(traj, consumer(traj, *args, **kwargs))

    run.consumer = consumer
    return run


def _finish(consumer):
    """What ``consumer`` returns when it is sent None."""
    try:
        consumer.send(None)
    except StopIteration as done:
        return done.value


def consume(add, top: int, stop: int):
    """A consumer of the rows below ``stop`` that calls ``add(rows, spec, d)`` on each block."""
    block = yield top, stop
    while block is not None:
        add(*block)
        del block
        block = yield


def together(*consumers, isolate: bool = False):
    """A consumer that feeds each block to every one of ``consumers`` and returns their results.

    With ``isolate`` a consumer that raises is dropped and its exception stands in for
    its result, so the pass goes on for the others.
    """
    caught = Exception if isolate else ()  # an empty tuple catches nothing
    live, results = dict(enumerate(consumers)), [None] * len(consumers)

    def each(step):
        for i, consumer in list(live.items()):
            try:
                results[i] = step(consumer)
            except caught as exc:
                results[i] = exc
                del live[i]

    each(next)  # each live consumer's (top, stop), in its result's place until the end
    tops, stops = zip((0, 0), *(results[i] for i in live))
    yield from consume(lambda *block: each(lambda c: c.send(block)), max(tops), max(stops))
    each(_finish)
    return tuple(results)
