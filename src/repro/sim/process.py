"""Base class for protocol state machines (runtime-agnostic).

A :class:`Process` is a named participant that reacts to messages and
timers. It interacts with the world only through an injected
:class:`~repro.runtime.base.Runtime`, so the same process runs on the
deterministic simulation kernel (``Process(SimRuntime(sim), pid)`` for a
timer-only process) or on an asyncio event loop over real sockets.

A process matches the paper's replica model (Appendix A.2.1): a state automaton
executing atomic steps in reaction to events. Crashing a process makes it
silently drop all subsequent events — "replicas may crash silently and cease
all communication".

Two crash modes are supported (:meth:`Process.crash`):

- ``"stop"`` (the paper's model): the process never executes another step.
- ``"recover"`` (the original Bayou's model, which kept its write log in
  stable storage): a later :meth:`Process.recover` brings the process back.
  Components hosted on the process register ``on_crash``/``on_recover``
  hooks (:meth:`register_crash_hooks`); a recovery hook's job is to discard
  volatile state, reload whatever the component persisted to its
  :class:`~repro.core.durability.DurableStore`, and resume periodic work.
  Work parked until the next recovery only (a cross-shard sub-operation, a
  migration's install) registers a one-shot hook
  (:meth:`on_next_recovery`), which leaves the list when it fires.

Timer bookkeeping distinguishes three terminal fates of a timer scheduled
through :meth:`set_timer`:

- **fired**: the callback ran normally;
- **cancelled**: the owner called :meth:`ProcessTimer.cancel` — the timer is
  dead regardless of crashes;
- **suppressed**: the timer came due while the process was crashed. The
  callback did not run, but the timer is *not* forgotten: a suppressed timer
  created with ``resurrect=True`` is re-armed (with its original delay) when
  the process recovers. This is what keeps self-re-arming periodic loops
  (anti-entropy syncs, heartbeats, retransmission drives) alive across a
  crash–recovery cycle instead of dying the first time their guard swallows
  a tick.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.runtime.base import Runtime, RuntimeTimer
from repro.sim.kernel import Simulator

#: Crash mode constants (also accepted as plain strings).
CRASH_STOP = "stop"
CRASH_RECOVER = "recover"

CrashHook = Callable[[str], None]
RecoverHook = Callable[[], None]


class ProcessTimer:
    """Handle for a local timer; distinguishes cancelled from suppressed."""

    __slots__ = ("delay", "callback", "label", "resurrect", "cancelled",
                 "suppressed", "fired", "event")

    def __init__(
        self,
        delay: float,
        callback: Callable[[], None],
        label: str,
        resurrect: bool,
    ) -> None:
        self.delay = delay
        self.callback = callback
        self.label = label
        self.resurrect = resurrect
        self.cancelled = False
        self.suppressed = False
        self.fired = False
        #: The backend handle this timer routes through — a runtime timer
        #: (sim event or asyncio call_later), never a sim event directly.
        #: ``None`` again once the timer fired or was cancelled: the handle
        #: carries this timer among its arguments, so holding on to it
        #: would make every timer a reference cycle that only the cyclic
        #: garbage collector can free.
        self.event: Optional[RuntimeTimer] = None

    def cancel(self) -> None:
        """Kill the timer for good; it will neither fire nor resurrect.

        Cancellation is enforced twice: the backend handle is cancelled
        (so no backend needs to run the callback at all), and
        :meth:`Process._fire` re-checks ``cancelled`` at fire time — a
        backend whose cancellation races its own dispatch (asyncio's
        ``call_later`` once the callback is already queued) still never
        runs a cancelled timer. The crash-stop regression tests pin this on
        both backends.
        """
        self.cancelled = True
        event = self.event
        if event is not None:
            event.cancel()
            self.event = None

    @property
    def pending(self) -> bool:
        """True while the timer is armed and none of its fates occurred."""
        return not (self.cancelled or self.suppressed or self.fired)


class Process:
    """A participant in the simulation, crash-stop or crash-recovery.

    Subclasses implement :meth:`on_message`. Timers scheduled through
    :meth:`set_timer` are automatically suppressed while the process is
    crashed: a crashed replica executes no further steps of any kind.
    """

    def __init__(
        self, runtime: Runtime, pid: int, name: Optional[str] = None
    ) -> None:
        self.runtime = runtime
        self.pid = pid
        self.name = name if name is not None else f"p{pid}"
        self.crashed = False
        #: The mode of the current crash (None while up).
        self.crash_mode: Optional[str] = None
        self.crash_count = 0
        self.recovery_count = 0
        #: ``(on_crash, on_recover, one_shot)`` in registration order.
        self._crash_hooks: List[
            Tuple[Optional[CrashHook], Optional[RecoverHook], bool]
        ] = []
        self._suppressed_timers: List[ProcessTimer] = []

    @property
    def now(self) -> float:
        """The runtime's current time (sim units or wall seconds)."""
        return self.runtime.now()

    @property
    def sim(self) -> Simulator:
        """The underlying simulator — sim-backend harness code only.

        Protocol components must not use this: it exists so clusters,
        scenario builders and tests that *own* the deterministic kernel
        can keep reaching it, and it raises on runtimes that have no
        simulator (the asyncio backend).
        """
        return self.runtime.sim  # type: ignore[attr-defined]

    def on_message(self, sender: int, message: Any) -> None:
        """Handle a message delivered by the network. Override in subclasses."""
        raise NotImplementedError

    def deliver(self, sender: int, message: Any) -> None:
        """Entry point for a transport that has not checked ``crashed``."""
        if self.crashed:
            return
        self.on_message(sender, message)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        label: str = "",
        resurrect: bool = False,
    ) -> ProcessTimer:
        """Schedule a local timer that fires only while the process is up.

        A timer coming due while the process is crashed is recorded as
        *suppressed*; with ``resurrect=True`` it is re-armed (same delay)
        when the process recovers — the contract periodic components rely
        on to survive a crash–recovery cycle.
        """
        timer = ProcessTimer(delay, callback, label or "process.timer", resurrect)
        timer.event = self.runtime.schedule(
            delay, self._fire, timer, label=timer.label
        )
        return timer

    def _fire(self, timer: ProcessTimer) -> None:
        """A timer came due: settle which of its three fates it meets."""
        timer.event = None
        if timer.cancelled:
            return
        if self.crashed:
            timer.suppressed = True
            self._suppressed_timers.append(timer)
            return
        timer.fired = True
        timer.callback()

    # ------------------------------------------------------------------
    # Crash–recovery lifecycle
    # ------------------------------------------------------------------
    def register_crash_hooks(
        self,
        *,
        on_crash: Optional[CrashHook] = None,
        on_recover: Optional[RecoverHook] = None,
    ) -> None:
        """Register component hooks, run in registration order.

        ``on_crash(mode)`` runs when the process crashes; ``on_recover()``
        runs when it recovers, *before* suppressed timers are resurrected,
        so a component can rebuild its state ahead of its periodic loop
        restarting.
        """
        self._crash_hooks.append((on_crash, on_recover, False))

    def on_next_recovery(self, callback: RecoverHook) -> None:
        """Run ``callback`` at this process's next recovery only.

        It takes its turn among the ``on_recover`` hooks in registration
        order and is removed from the hook list when it fires.
        """
        self._crash_hooks.append((None, callback, True))

    def crash(self, mode: str = CRASH_STOP) -> None:
        """Silently stop the process; all further events are ignored.

        ``mode`` records intent only: ``"stop"`` is the paper's permanent
        silent crash, ``"recover"`` announces that :meth:`recover` will be
        called later. Either way the process executes nothing while down.
        """
        if self.crashed:
            return
        if mode not in (CRASH_STOP, CRASH_RECOVER):
            raise ValueError(f"unknown crash mode {mode!r}")
        self.crashed = True
        self.crash_mode = mode
        self.crash_count += 1
        for on_crash, _, _ in self._crash_hooks:
            if on_crash is not None:
                on_crash(mode)

    def recover(self) -> None:
        """Bring a crashed process back.

        Runs every registered ``on_recover`` hook (components discard
        volatile state and reload from stable storage), then resurrects the
        timers that were suppressed during the downtime and asked for it.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.crash_mode = None
        self.recovery_count += 1
        suppressed, self._suppressed_timers = self._suppressed_timers, []
        hooks = self._crash_hooks
        index = 0
        while index < len(hooks):
            _, on_recover, one_shot = hooks[index]
            if one_shot:
                del hooks[index]
            else:
                index += 1
            if on_recover is not None:
                on_recover()
        for timer in suppressed:
            if timer.resurrect and not timer.cancelled:
                self.set_timer(
                    timer.delay,
                    timer.callback,
                    label=timer.label,
                    resurrect=True,
                )
