"""Deterministic fault injection for the execution and serving stack.

A :class:`FaultPlan` is a seeded schedule of artificial failures.  Code
at a handful of *injection sites* asks the installed plan whether to
fail right here; the plan rolls a per-site :class:`random.Random`
(seeded from ``(seed, site)``, so every site's decision stream is
reproducible and independent of the others) against the site's
configured rate.  Sites:

======================  ====================================================
``kernel.step``         a batched plan kernel raises mid-advance
                        (:mod:`repro.exec.kernels`)
``cache.lookup``        a plan-cache lookup fails (:mod:`repro.exec.cache`)
``pool.compile``        a pool compile fails before the factory runs
                        (every serve ``OPEN`` and checkpoint restore)
``wire.corrupt``        one frame byte is flipped before the write — the
                        CRC-32 in the frame header turns this into a typed
                        ``corrupt`` protocol error at the receiver
``wire.truncate``       the frame is cut mid-write and the transport closed
``wire.drop``           the connection is aborted instead of writing
``wire.latency``        the write sleeps ``plan.latency`` seconds first
======================  ====================================================

The hot-path contract is **zero overhead when disabled**: call sites
read the module global ``ACTIVE`` inline (``if faults.ACTIVE is not
None: ...``) — one attribute load and an ``is`` test, no call.

Recovery must not re-fault while it re-runs a request from a checkpoint
(a high kernel rate would livelock it); :func:`suppress` masks every
site for the current thread::

    with faults.suppress():
        session.restore(snap)
        out = session.push(chunk)

Install/uninstall are process-global; tests (and the chaos harness,
``tests/chaos.py``) pair them in ``try/finally``.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager

from .errors import FaultInjected

__all__ = ["FaultPlan", "FaultInjected", "ACTIVE", "install", "uninstall",
           "suppress", "SITES"]

#: Every injection site threaded through the stack, grouped by class.
SITES = ("kernel.step", "cache.lookup", "pool.compile", "wire.corrupt",
         "wire.truncate", "wire.drop", "wire.latency")

#: The installed plan, or ``None``.  Call sites read this inline.
ACTIVE: "FaultPlan | None" = None

_tls = threading.local()


def _suppressed() -> bool:
    return getattr(_tls, "depth", 0) > 0


@contextmanager
def suppress():
    """Mask every injection site for the current thread (re-entrant)."""
    _tls.depth = getattr(_tls, "depth", 0) + 1
    try:
        yield
    finally:
        _tls.depth -= 1


class FaultPlan:
    """A seeded, per-site fault schedule.

    ``rates`` maps site names to fire probabilities; unlisted sites
    never fire but still count attempts (the chaos harness reports
    coverage).  ``max_per_site`` caps firings per site — tests use
    ``rates={"kernel.step": 1.0}, max_per_site=1`` for a deterministic
    single fault.  ``latency`` is the ``wire.latency`` sleep in seconds.
    """

    def __init__(self, seed: int = 0, rates: dict | None = None,
                 latency: float = 0.005, max_per_site: int | None = None):
        self.seed = seed
        self.rates = dict(rates or {})
        unknown = set(self.rates) - set(SITES)
        if unknown:
            raise ValueError(f"unknown fault sites: {sorted(unknown)}")
        self.latency = latency
        self.max_per_site = max_per_site
        self._lock = threading.Lock()
        self._rngs: dict[str, random.Random] = {}
        self.attempts: dict[str, int] = {s: 0 for s in SITES}
        self.fired: dict[str, int] = {s: 0 for s in SITES}

    def roll(self, site: str) -> bool:
        """Whether the fault at ``site`` fires now (and count it)."""
        if _suppressed():
            return False
        rate = self.rates.get(site, 0.0)
        with self._lock:
            self.attempts[site] += 1
            if rate <= 0.0:
                return False
            if self.max_per_site is not None and \
                    self.fired[site] >= self.max_per_site:
                return False
            rng = self._rngs.get(site)
            if rng is None:
                rng = self._rngs[site] = random.Random(f"{self.seed}:{site}")
            if rng.random() >= rate:
                return False
            self.fired[site] += 1
            return True

    def fire(self, site: str) -> None:
        """Raise :class:`FaultInjected` when the site's roll fires."""
        if self.roll(site):
            raise FaultInjected(site)

    def counts(self) -> dict:
        """``{"attempts": {...}, "fired": {...}}`` snapshot."""
        with self._lock:
            return {"attempts": dict(self.attempts),
                    "fired": dict(self.fired)}

    def fired_by_class(self) -> dict:
        """Fired counts grouped by site class (``kernel``/``cache``/...)."""
        with self._lock:
            out: dict[str, int] = {}
            for site, n in self.fired.items():
                cls = site.split(".", 1)[0]
                out[cls] = out.get(cls, 0) + n
            return out


def install(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan; returns it."""
    global ACTIVE
    ACTIVE = plan
    return plan


def uninstall() -> "FaultPlan | None":
    """Deactivate fault injection; returns the removed plan."""
    global ACTIVE
    plan = ACTIVE
    ACTIVE = None
    return plan
