"""Device front-end: coalescing write buffer + multi-queue scheduler.

The host-side layer between the request stream and the FTL (ROADMAP
open item 1).  ``config`` is dependency-free (cache keys, worker
specs); ``cache`` and ``scheduler`` are pure data structures;
``simulate`` ties them to the simulator stack.  See
``docs/FRONTEND.md``.
"""

from .. import lazy_exports

_EXPORTS = {
    "BufferStats": ".cache",
    "FrontendConfig": ".config",
    "FrontRequest": ".scheduler", "MultiQueueScheduler": ".scheduler",
    "WriteBuffer": ".cache",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
