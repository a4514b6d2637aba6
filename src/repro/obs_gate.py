"""Zero-overhead gate in front of the observability subsystem.

Observability (:mod:`repro.obs`) is strictly opt-in, mirroring the
``REPRO_VALIDATE_PLANS`` discipline of the plan verifier: with the
``REPRO_OBS`` environment gate off, ``import repro`` must not import
the subsystem and instrumented call sites must pay nothing beyond one
environment read.  Every instrumented module therefore goes through
this tiny facade instead of importing :mod:`repro.obs` directly::

    from repro.obs_gate import get_obs

    obs = get_obs()          # None when the gate is off
    if obs is not None:
        with obs.span("exec.compile", n=matrix.n):
            ...

The gate is also what the ``direct-timing-in-hot-path`` lint rule
(:mod:`repro.analysis.lint`) points hot-path modules at: wall-clock
reads in ``repro/exec/`` are forbidden outright, so any timing there
must run behind ``get_obs()`` — making "disabled means free" a property
the linter can enforce, not a convention.

``REPRO_OBS_DIR`` names the directory snapshots and traces are flushed
to (default ``.repro-obs``); see :func:`repro.obs.flush`.
"""

from __future__ import annotations

import os
from contextlib import nullcontext

__all__ = ["OBS_DIR_ENV_VAR", "OBS_ENV_VAR", "get_obs", "obs_enabled",
           "obs_span", "set_enabled"]

#: Environment gate: truthy values enable the subsystem.
OBS_ENV_VAR = "REPRO_OBS"

#: Directory metrics snapshots and trace JSONL files are flushed to.
OBS_DIR_ENV_VAR = "REPRO_OBS_DIR"

_TRUTHY = frozenset(("1", "true", "yes", "on"))

#: Programmatic override (``repro suite --obs-dir`` and tests):
#: ``None`` defers to the environment, a bool wins outright.
_FORCED: bool | None = None


def obs_enabled() -> bool:
    """Whether observability is on (override first, then ``REPRO_OBS``).

    Examples
    --------
    >>> from repro.obs_gate import obs_enabled, set_enabled
    >>> set_enabled(True)
    >>> obs_enabled()
    True
    >>> set_enabled(None)  # back to the environment gate
    """
    if _FORCED is not None:
        return _FORCED
    return os.environ.get(OBS_ENV_VAR, "").strip().lower() in _TRUTHY


def get_obs():
    """The :mod:`repro.obs` module when the gate is on, else ``None``.

    The import happens lazily on the first enabled call, so the
    disabled path never loads the subsystem — the invariant the exec
    bench's zero-overhead floor pins down.
    """
    if not obs_enabled():
        return None
    import repro.obs as obs

    return obs


def obs_span(name: str, **tags: object):
    """A ``repro.obs`` span when the gate is on, else a no-op context
    (yielding ``None``) — for call sites that trace a whole operation
    and tag it only when a span exists."""
    obs = get_obs()
    return obs.span(name, **tags) if obs is not None else nullcontext()


def set_enabled(value: bool | None) -> None:
    """Programmatically force the gate on/off; ``None`` restores the
    environment-driven default.  Used by ``--obs-dir`` CLI runs and
    tests; library code should prefer the environment gate."""
    global _FORCED
    _FORCED = value if value is None else bool(value)
